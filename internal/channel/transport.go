package channel

import (
	"errors"
	"fmt"
)

// Transport abstracts the message substrate the parallel runtime runs
// on: a complete point-to-point network of single-reader single-writer
// channels with infinite slack, plus the delivery-control hooks a real
// (buffered, asynchronous) wire needs.  The in-process Net implements
// it with immediate delivery, so its Flush is a no-op; its Abort wakes
// parked receivers exactly as a socket transport's does.
// SocketTransport implements it over framed TCP or Unix-domain
// connections.
//
// Theorem 1 of the paper (all maximal fair executions of an SSP program
// reach the same final state) is what makes the backend swap exact: as
// long as a Transport preserves each channel's FIFO order and delivers
// every sent message eventually, the program's results are bitwise
// identical across backends.
type Transport[T any] interface {
	// P returns the number of processes in the network.
	P() int
	// Chan returns the channel endpoint from process `from` to process
	// `to`.  Per-rank transports (see DialMesh) only materialise the
	// channels that touch the local rank and panic on others.
	Chan(from, to int) Endpoint[T]
	// Flush pushes any locally buffered outbound frames of rank `from`
	// to the wire.  Backends must flush a rank's links before blocking
	// on an empty receive and when the rank's process completes; mesh
	// operations additionally flush at the end of their send sections
	// so neighbours see one coalesced write per exchange phase.
	Flush(from int)
	// Err returns the first transport failure (connection reset,
	// corrupt frame, abort, ...), or nil.  Once non-nil it never
	// reverts.
	Err() error
	// Abort fails the transport with err and wakes every rank parked
	// inside a blocking Recv of one of its endpoints; the woken Recv
	// panics with a *TransportError.  Receivers park inside their
	// endpoints on every transport, so this is how a supervisor (or a
	// job timeout) reaches them.  An aborted transport stays failed.
	Abort(err error)
	// Pending returns the total number of sent-but-unreceived values
	// on the channels whose two ends are both local.
	Pending() int
	// Close releases the transport's resources.  In-process transports
	// have none; socket transports close their connections, which
	// unblocks peer readers.
	Close() error
}

// Statically assert that both implementations satisfy Transport.
var (
	_ Transport[int] = (*Net[int])(nil)
	_ Transport[int] = (*SocketTransport[int])(nil)
)

// abortError is the sticky failure Abort(err) installs, on every
// transport.
func abortError(err error) error {
	if err == nil {
		err = errors.New("transport aborted")
	}
	return fmt.Errorf("transport: aborted: %w", err)
}

// Flush is a no-op: in-process sends are delivered synchronously.
func (n *Net[T]) Flush(from int) {}

// Err returns the abort that failed the network, or nil.
func (n *Net[T]) Err() error {
	if err := n.err.Load(); err != nil {
		return *err
	}
	return nil
}

// Abort fails the network and wakes every receive parked on one of its
// channels; the woken Recv panics with a *TransportError.  Only the
// first call has an effect.
func (n *Net[T]) Abort(err error) {
	err = abortError(err)
	if !n.err.CompareAndSwap(nil, &err) {
		return
	}
	for _, e := range n.chans {
		if c, ok := e.(*Chan[T]); ok {
			c.abort(err)
		}
	}
}

// Close is a no-op for the in-process network.
func (n *Net[T]) Close() error { return nil }

// Codec serialises values of T for the wire.  Append encodes v onto dst
// (reusing dst's capacity, growing as needed) and returns the extended
// slice; it owns v after the call, so implementations may recycle
// buffers the value carries.  Decode parses one encoded value; the
// input slice is only valid during the call, so implementations must
// copy (ideally into a pooled buffer).
type Codec[T any] struct {
	Append func(dst []byte, v T) []byte
	Decode func(src []byte) (T, error)
}
