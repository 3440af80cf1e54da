package main

import (
	"bytes"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// A process started through startPlaced runs on the CPUs it is given, and
// the forking thread gets its own mask back.
func TestStartPlacedPinsChild(t *testing.T) {
	allowed, err := allowedCPUs()
	if err != nil {
		t.Fatal(err)
	}
	if len(allowed) < 2 {
		t.Skip("needs two CPUs")
	}
	var out bytes.Buffer
	cmd := exec.Command("cat", "/proc/self/status")
	cmd.Stdout = &out
	if err := startPlaced(cmd, allowed[1:2]); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	var list string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			list = strings.TrimSpace(rest)
		}
	}
	if want := strconv.Itoa(allowed[1]); list != want {
		t.Fatalf("child Cpus_allowed_list %q, want %q", list, want)
	}
	after, err := allowedCPUs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, allowed) {
		t.Fatalf("mask after the start %v, want %v", after, allowed)
	}
}
