package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one butterflyd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port

	mu      sync.Mutex
	stderr  bytes.Buffer
	drained chan struct{} // closed once stderr hits EOF

	waitOnce sync.Once
	waitErr  error
}

// live holds every started daemon not yet waited for, so any exit path
// of the benchmark can stop them all.
var live = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: make(map[*daemon]bool)}

// killAll kills and waits for every daemon still running.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		_ = d.kill()
	}
}

// daemonNice is the daemons' nice value. Where a daemon shares a CPU
// with this process (solve-mix), its solver threads would otherwise hold
// the CPU for a scheduler slice while an open-loop request is due, and
// the generator's lateness would show as hit latency (0.9–2.5 ms median
// lag at nice 0). A daemon alone on its CPU is unaffected.
const daemonNice = 10

// startDaemon runs bin with args (which must not name -addr) on a
// kernel-chosen loopback port and waits until it is listening.
func startDaemon(bin string, cpus []int, args ...string) (*daemon, error) {
	// nice(1) execs the daemon in place, so the pid is the daemon's.
	cmd := exec.Command("nice", append([]string{"-n", fmt.Sprint(daemonNice), bin, "-addr", "127.0.0.1:0"}, args...)...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := startPlaced(cmd, cpus); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	live.Lock()
	live.set[d] = true
	live.Unlock()
	listening := make(chan string, 1) // one send at most: the first listening line
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				select {
				case listening <- strings.TrimSpace(addr):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, pipe)
	}()
	select {
	case addr := <-listening:
		d.base = addr
		return d, nil
	case <-d.drained:
	case <-time.After(30 * time.Second):
	}
	_ = d.kill()
	return nil, fmt.Errorf("butterflyd %s did not start listening:\n%s", strings.Join(args, " "), d.log())
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// wait reaps the process once, whoever asks first, and drops it from
// the live set.
func (d *daemon) wait() error {
	d.waitOnce.Do(func() {
		// Read stderr to EOF before Wait, which closes the pipe.
		<-d.drained
		d.waitErr = d.cmd.Wait()
		live.Lock()
		delete(live.set, d)
		live.Unlock()
	})
	return d.waitErr
}

// stop drains the daemon with SIGTERM (flushing its cache into any store)
// and waits for it; a daemon still alive after 30s is killed.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1) // buffered: the waiter never blocks if we time out
	go func() { done <- d.wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("butterflyd exit: %v\n%s", err, d.log())
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("butterflyd did not drain within 30s")
	}
}

// kill stops the daemon without a drain and waits for it.
func (d *daemon) kill() error {
	_ = d.cmd.Process.Kill()
	return d.wait()
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// freeAddr reserves a loopback port for a daemon's cluster listener (the
// peer list must name every address before any daemon starts).
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// metrics is a /debug/metrics snapshot reduced to its numeric entries.
type metrics map[string]float64

// scrape reads a daemon's /debug/metrics on worker 0 after dropping idle
// connections, so it never holds a connection beyond the budget.
func (d *Client) scrape(base string) (metrics, error) {
	d.closeIdle()
	defer d.closeIdle()
	var buf bytes.Buffer
	status, _, err := d.get(0, base, "/debug/metrics", "", &buf)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/debug/metrics: status %d", status)
	}
	var raw map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		return nil, fmt.Errorf("/debug/metrics: %w", err)
	}
	out := make(metrics, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// delta returns after-before for every metric.
func delta(before, after metrics) metrics {
	out := make(metrics, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// accessLine is the subset of a butterflyd access-log record the
// reconciliation joins on.
type accessLine struct {
	ID        string `json:"id"`
	LatencyUS int64  `json:"latency_us"`
}

// readAccessLog parses a JSONL access log into a map by request ID.
func readAccessLog(path string) (map[string]accessLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]accessLine)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var l accessLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[l.ID] = l
	}
	return out, sc.Err()
}
