package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. Left to the scheduler, this process and the daemons
// share the CPUs and a run measures where their threads happened to
// land: on a 2-vCPU host, closed-loop hits on fresh unpinned daemons ran
// at 9.9k in one run and 17.3k rps in another. So the benchmark splits
// the CPUs it is allowed: the daemons run on one and this process on
// another, and every run sees the same placement. A workload whose
// daemon must serve hits beside its own solves (solve-mix) gives the
// daemons every CPU instead: on one CPU a hit waits for the runtime to
// preempt the solve.

type cpuMask [1024 / 64]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

// allowedCPUs lists the CPUs this thread may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var out []int
	for c := 0; c < len(m)*64; c++ {
		if m.has(c) {
			out = append(out, c)
		}
	}
	return out, nil
}

// setAffinity restricts thread tid (0: the calling thread) to cs.
func setAffinity(tid int, cs ...int) error {
	var m cpuMask
	for _, c := range cs {
		m.set(c)
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, cpus %v): %w", tid, cs, errno)
	}
	return nil
}

// place pins this process to its first allowed CPU and returns the CPUs
// the daemons get: the second, or every allowed CPU when shared is set.
// With a single CPU nothing is pinned and it returns nil.
func place(shared bool) ([]int, error) {
	allowed, err := allowedCPUs()
	if err != nil || len(allowed) < 2 {
		return nil, err
	}
	// Threads the runtime starts later are cloned from pinned ones and
	// inherit the mask.
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, allowed[0]); err != nil {
			return nil, err
		}
	}
	runtime.GOMAXPROCS(1)
	if shared {
		return allowed, nil
	}
	return allowed[1:2], nil
}

// startPlaced starts cmd on the given CPUs (any, when there are none):
// the child inherits the mask of the thread that forks it, so that
// thread is moved there for the fork and back after. A Go daemon sizes
// GOMAXPROCS and its default worker counts from that mask.
func startPlaced(cmd *exec.Cmd, cpus []int) error {
	if len(cpus) == 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	prev, err := allowedCPUs()
	if err != nil {
		return err
	}
	if err := setAffinity(0, cpus...); err != nil {
		return err
	}
	err = cmd.Start()
	if rerr := setAffinity(0, prev...); err == nil {
		err = rerr
	}
	return err
}
