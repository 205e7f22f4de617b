//go:build !linux

package main

import (
	"errors"
	"syscall"
	"time"
)

func daemonAttr() *syscall.SysProcAttr { return nil }

// selfCPU and procCPU read Linux accounting; elsewhere the CPU metrics read 0.
func selfCPU() time.Duration { return 0 }

func procCPU(pid int) (time.Duration, error) {
	return 0, errors.New("process CPU time is read from /proc, which needs Linux")
}
