package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set (up to 1024 CPUs).
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the process may run on, in order.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	var cpus []int
	for i := range len(m) * 64 {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinTo moves every thread of the process onto one CPU. Threads the Go
// runtime starts later, and the worker subprocesses a repetition spawns,
// inherit the mask. The task list is walked twice so that a thread started
// during the first walk is caught by the second.
func pinTo(cpu int) {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	for range 2 {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		}
	}
}
