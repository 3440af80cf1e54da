package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// record is the client's account of one request. Latency runs from Due
// (the schedule's send time in an open loop, the send itself in a closed
// loop) to the last body byte, so a stall that delays later sends shows
// in their latency. A request still unsent when the grace after the
// window expires is recorded with Unsent set and counts as a failure.
type record struct {
	ID     string
	Req    Request
	Due    time.Time
	Sent   time.Time
	Done   time.Time
	Status int
	Source string // X-Cache
	Err    error
	Unsent bool
}

func (r record) latency() time.Duration { return r.Done.Sub(r.Due) }
func (r record) lag() time.Duration     { return r.Sent.Sub(r.Due) }
func (r record) failed() bool           { return r.Unsent || r.Err != nil || r.Status != http.StatusOK }

// connCounter wraps a dialer and tracks how many client connections are
// open at once; run asserts the peak never exceeds its budget.
type connCounter struct {
	open, peak atomic.Int64
	dialer     net.Dialer
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := c.dialer.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := c.open.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return &countedConn{Conn: conn, c: c}, nil
}

// Client sends requests on a fixed set of workers, each owning exactly
// one keep-alive connection: the load comes from one process on at most
// len(workers) connections.
type Client struct {
	workers []*http.Client
	conns   *connCounter
	check   *Checker
	grace   time.Duration // how long past the window a late open-loop request may still be sent
}

func newClient(workers int, check *Checker) *Client {
	d := &Client{conns: &connCounter{}, check: check, grace: 2 * time.Second}
	for i := 0; i < workers; i++ {
		d.workers = append(d.workers, &http.Client{
			Transport: &http.Transport{
				DialContext:         d.conns.dial,
				MaxConnsPerHost:     1,
				MaxIdleConns:        1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
			Timeout: 30 * time.Second,
		})
	}
	return d
}

// closeIdle drops every kept-alive connection, so a request to another
// daemon (a scrape, the next set-up) never holds one more than the budget.
func (d *Client) closeIdle() {
	for _, c := range d.workers {
		c.CloseIdleConnections()
	}
}

// get fetches a path on worker w, returning the body.
func (d *Client) get(w int, base, path, id string, buf *bytes.Buffer) (status int, source string, err error) {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return 0, "", err
	}
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := d.workers[w].Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), nil
}

// send issues one request on worker w and checks the answer.
func (d *Client) send(w int, base string, rec *record, buf *bytes.Buffer) {
	rec.Sent = time.Now()
	status, source, err := d.get(w, base, rec.Req.Path(), rec.ID, buf)
	rec.Done = time.Now()
	rec.Status, rec.Source, rec.Err = status, source, err
	if err == nil && status != http.StatusOK {
		rec.Err = fmt.Errorf("%s: status %d: %.200s", rec.Req.Key(), status, buf.String())
	}
	if rec.Err == nil {
		rec.Err = d.check.Check(rec.Req, source, buf.Bytes())
	}
}

// Split sends reqs closed loop over the given workers, each request once
// (set-up fills).
func (d *Client) Split(base string, workers []int, phase string, reqs []Request) []record {
	out := make([]record, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = record{ID: fmt.Sprintf("%s-%d", phase, i), Req: reqs[i], Due: time.Now()}
				d.send(w, base, &out[i], &buf)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// OpenLoop fires seq(0), seq(1), ... at a fixed rate for dur, sharing the
// schedule among the workers: each takes the next due request, waits for
// its due time and sends it. A worker busy past a due time delays that
// request, and the delay counts in its latency. Requests still unsent
// grace after the window are recorded Unsent. backlog is the number of
// requests that were due but not yet sent when the window closed.
func (d *Client) OpenLoop(base string, workers []int, phase string, rate float64, dur time.Duration, seq func(int) Request) (recs []record, backlog int, err error) {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	recs = make([]record, n)
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(dur)
	giveUp := end.Add(d.grace)
	wakers := make([]*waker, len(workers))
	for i := range wakers {
		if wakers[i], err = newWaker(); err != nil {
			return nil, 0, err
		}
		defer wakers[i].close()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var sleepErr atomic.Value
	for wi, w := range workers {
		wg.Add(1)
		go func(w int, wk *waker) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				rec := &recs[i]
				*rec = record{ID: fmt.Sprintf("%s-%d", phase, i), Req: seq(i), Due: start.Add(time.Duration(i) * interval)}
				if err := wk.until(rec.Due); err != nil {
					sleepErr.CompareAndSwap(nil, err)
				}
				if time.Now().After(giveUp) {
					rec.Unsent = true
					continue
				}
				d.send(w, base, rec, &buf)
			}
		}(w, wakers[wi])
	}
	wg.Wait()
	if e, ok := sleepErr.Load().(error); ok {
		return nil, 0, e
	}
	for i := range recs {
		if recs[i].Unsent || recs[i].Sent.After(end) {
			backlog++
		}
	}
	return recs, backlog, nil
}

// waker sleeps a goroutine until a deadline on a Linux timerfd read
// through the runtime's netpoller: the wake-up is microseconds late, where
// Go's own timers add up to a millisecond to sub-millisecond sleeps —
// which would swamp a 100µs hit — and no P is held while it waits.
type waker struct {
	fd uintptr
	f  *os.File
}

func newWaker() (*waker, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &waker{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// until blocks until t (at once if t has passed).
func (w *waker) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var buf [8]byte // the expiration count
	_, err := w.f.Read(buf[:])
	return err
}

func (w *waker) close() error { return w.f.Close() }

// ClosedLoop keeps every worker busy with seq(0), seq(1), ... for dur:
// each sends its next request as soon as its previous answer arrives.
// It returns the records and the measured window.
func (d *Client) ClosedLoop(base string, workers []int, phase string, dur time.Duration, seq func(int) Request) ([]record, time.Duration) {
	var mu sync.Mutex
	var recs []record
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for _, w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			var mine []record
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				rec := record{ID: fmt.Sprintf("%s-%d", phase, i), Req: seq(i), Due: time.Now()}
				d.send(w, base, &rec, &buf)
				mine = append(mine, rec)
			}
			mu.Lock()
			recs = append(recs, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return recs, time.Since(start)
}
