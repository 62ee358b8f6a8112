//go:build !linux

package transport

import "time"

// waitKernel falls back to the runtime timer off Linux, so sub-millisecond
// delays there are only as fine as the runtime's timers.
func (w *schedWaiter) waitKernel(_ uint32, d time.Duration) { w.waitTimer(d) }

func futexWake(*uint32) {}
