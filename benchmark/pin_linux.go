package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU restricts every thread of this process, and so every thread
// and child it starts afterwards, to the highest-numbered CPU it may run
// on, and returns that CPU. On the 2-vCPU virtual machines this benchmark
// runs on, waking a thread on the other vCPU costs more than a whole
// invocation and varies from run to run; with client and server sharing
// one CPU the measured time is the work of the layers, not of the
// hypervisor's inter-processor interrupts.
func pinToOneCPU() (int, error) {
	var allowed cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed[0]))); errno != 0 {
		return -1, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := len(allowed)*64 - 1; i >= 0; i-- {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return -1, fmt.Errorf("sched_getaffinity: empty mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return -1, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one[0]))); errno != 0 {
			return -1, fmt.Errorf("sched_setaffinity(thread %d, cpu %d): %w", tid, cpu, errno)
		}
	}
	return cpu, nil
}
