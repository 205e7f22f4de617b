package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonAttr makes the kernel kill the daemon if the benchmark dies without
// stopping it.
func daemonAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ).
const clockTick = 10 * time.Millisecond

// selfCPU is the CPU time this process has used, user and system, over all
// its threads. The kernel leaves out time the hypervisor stole from the
// virtual CPUs, so on a shared host it moves less than wall time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the CPU time another process has used, user and system, read
// from /proc/<pid>/stat at clock-tick resolution.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it do not.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// fields[0] is the state (field 3), so utime (14) and stime (15) are
	// fields[11] and fields[12].
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}
