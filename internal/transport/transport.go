// Package transport provides the authenticated point-to-point links of the
// system model (paper §III). Two implementations are provided:
//
//   - MemNetwork: an in-process network for tests, examples, and the
//     benchmark harness. It supports fault injection — added latency,
//     message drops, partitions, and isolating single processes — which the
//     integration tests use to exercise leader changes, crashes, and
//     recoveries deterministically.
//
//   - TCPNetwork: a real network transport with length-prefixed frames and
//     HMAC-SHA256 link authentication, used by cmd/smartchaind.
//
// The unit of addressing is a process ID (int32). Replicas and clients share
// the same address space; by convention replicas use small non-negative IDs
// and clients use IDs ≥ ClientIDBase.
package transport

import "errors"

// ClientIDBase separates client IDs from replica IDs by convention.
const ClientIDBase int32 = 1 << 16

// Errors returned by endpoints.
var (
	ErrClosed         = errors.New("transport: endpoint closed")
	ErrUnknownDest    = errors.New("transport: unknown destination")
	ErrFrameTooLarge  = errors.New("transport: frame exceeds maximum size")
	ErrAuthentication = errors.New("transport: link authentication failed")
)

// Message is a routed, typed, opaque payload. Type namespaces are owned by
// the layers above (consensus, smr, core agree on disjoint ranges).
type Message struct {
	From    int32
	To      int32
	Type    uint16
	Payload []byte
}

// Endpoint is one process's attachment to a network.
type Endpoint interface {
	// ID returns the process ID this endpoint is bound to.
	ID() int32
	// Send delivers one message to a single destination. Sends to unknown
	// or crashed destinations fail silently from the protocol's point of
	// view (fair links may drop); the returned error is advisory.
	Send(to int32, typ uint16, payload []byte) error
	// Receive returns the channel of inbound messages. The channel is
	// closed when the endpoint is closed.
	Receive() <-chan Message
	// Close detaches the endpoint. Pending inbound messages are discarded.
	Close() error
}
