// Package codec stands in for the wire codec: the one place a uint32 is
// read as a list count.
package codec

// Decoder reads one message.
type Decoder struct{ data []byte }

// Uint32 reads a big-endian uint32.
func (d *Decoder) Uint32() uint32 {
	if len(d.data) < 4 {
		return 0
	}
	v := uint32(d.data[0])<<24 | uint32(d.data[1])<<16 | uint32(d.data[2])<<8 | uint32(d.data[3])
	d.data = d.data[4:]
	return v
}

// Count reads a list count: inside the codec, the counter loop is the
// implementation.
func (d *Decoder) Count() int {
	n := d.Uint32()
	seen := 0
	for i := uint32(0); i < n && seen < len(d.data); i++ {
		seen++
	}
	return seen
}
