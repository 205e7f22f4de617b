package main

import (
	"os"
	"testing"
	"time"
)

// The daemon's CPU time is read from /proc at tick resolution and this
// process's from getrusage; both must count the same work.
func TestCPUClocksAgree(t *testing.T) {
	self0 := selfCPU()
	proc0, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for start := selfCPU(); selfCPU()-start < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	self := selfCPU() - self0
	proc1, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	proc := proc1 - proc0
	if self < 300*time.Millisecond {
		t.Fatalf("selfCPU advanced %v over a 300 ms busy loop (x=%d)", self, x)
	}
	if d := proc - self; d < -3*clockTick || d > 3*clockTick {
		t.Errorf("procCPU advanced %v, selfCPU %v: more than 3 ticks apart", proc, self)
	}
}
