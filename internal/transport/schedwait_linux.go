package transport

import (
	"syscall"
	"time"
	"unsafe"
)

const (
	futexWaitPrivate = 128 // FUTEX_WAIT | FUTEX_PRIVATE_FLAG
	futexWakePrivate = 129 // FUTEX_WAKE | FUTEX_PRIVATE_FLAG
)

// waitKernel waits in a futex until d has passed or until a wake that came
// after tok was taken. It may return early; the caller re-checks.
func (w *schedWaiter) waitKernel(tok uint32, d time.Duration) {
	w.kernel.Store(true)
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&w.seq)), futexWaitPrivate,
		uintptr(tok), uintptr(unsafe.Pointer(&ts)), 0, 0)
	w.kernel.Store(false)
}

func futexWake(addr *uint32) {
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(addr)), futexWakePrivate, 1, 0, 0, 0)
}
