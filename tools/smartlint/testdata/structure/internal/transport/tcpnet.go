// Package transport's TCP wire with a second dial path and a second fault
// surface.
package transport

import (
	"crypto/tls" // want `./internal/transport imports "crypto/tls"`
)

// TCPNetwork is the wire.
type TCPNetwork struct {
	conf     *tls.Config
	isolated map[int32]bool // want `internal/transport.isolated appears in ./internal/transport`
}

// SetLinkDelay is the per-link delay the wire gave up.
func (t *TCPNetwork) SetLinkDelay(ms int) { t.conf = &tls.Config{MinVersion: uint16(ms)} } // want `internal/transport.TCPNetwork.SetLinkDelay appears`
