//go:build !linux

package main

import "errors"

// pinToOneCPU is only implemented on Linux.
func pinToOneCPU() (int, error) {
	return -1, errors.New("CPU pinning is not supported on this platform")
}
