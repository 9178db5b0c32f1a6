//go:build !linux

package broker

// platformCore is the core NewConnServer serves with: without epoll, the
// portable one.
var platformCore = goroutineCore
