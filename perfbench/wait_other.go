//go:build !linux

package main

import "time"

// waiter sleeps the generator; only Linux has the precise timerfd form.
type waiter struct{}

func newWaiter() *waiter { return &waiter{} }

func (w *waiter) kind() string { return "time.Sleep" }

func (w *waiter) until(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func (w *waiter) close() {}
