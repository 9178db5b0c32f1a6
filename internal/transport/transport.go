// Package transport abstracts how Dynamoth components reach pub/sub
// servers: in-process broker sessions (optionally with simulated WAN
// latency, matching the paper's King-dataset injection) or real TCP
// connections speaking RESP. The client library and the dispatchers are
// written against Dialer/Conn and work over either.
package transport

import (
	"errors"

	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
)

// Handler receives asynchronous events from a connection.
type Handler interface {
	// OnMessage delivers one publication received on a subscribed channel.
	// Ownership of payload transfers to the handler: the transport never
	// reuses or retains the slice after the call, so the handler may keep
	// (or alias) it without copying.
	OnMessage(channel string, payload []byte)
	// OnDisconnect reports that the connection died (server shutdown, slow
	// consumer kill, network error). The Conn is unusable afterwards.
	OnDisconnect(err error)
}

// Conn is a pub/sub connection to one server.
type Conn interface {
	// Subscribe adds subscriptions.
	Subscribe(channels ...string) error
	// Unsubscribe removes subscriptions.
	Unsubscribe(channels ...string) error
	// SubscribeCursor is the resumable subscribe: it subscribes to channel
	// and has the server replay, from its per-channel replay ring, the
	// frames the cursor's position misses, before live flow.
	SubscribeCursor(channel string, cursor message.Cursor) (ReplayResult, error)
	// Publish sends a payload on a channel. Implementations may pipeline:
	// a nil return means the publish was accepted for delivery, and a
	// server-side failure may instead surface on a later call. Publish
	// consumes payload before returning (it is copied or written out), so
	// the caller may reuse its buffer at once — the client publishes from
	// pooled envelope buffers.
	Publish(channel string, payload []byte) error
	// Close tears the connection down. OnDisconnect is not called for
	// explicit closes.
	Close() error
}

// ReplayResult reports what a cursor subscribe replayed (the broker's
// CSUBSCRIBE ack at the transport boundary).
type ReplayResult struct {
	// Replayed is how many retained frames the server queued before live
	// flow; they arrive as ordinary OnMessage deliveries.
	Replayed int
	// Missed is how many requested frames the server's ring had already
	// overwritten — a definite, unrecoverable gap.
	Missed uint64
	// Epoch is the server ring's current epoch (0 when the channel has no
	// ring), so the client can attribute Missed to the right sequence track.
	Epoch uint64
}

// Dialer opens connections to pub/sub servers by ID.
type Dialer interface {
	Dial(server plan.ServerID, h Handler) (Conn, error)
}

// ErrUnknownServer is returned when dialing a server the dialer has no
// route to.
var ErrUnknownServer = errors.New("transport: unknown server")

// ErrClosed is returned from operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")
