package errdrop

import (
	"bytes"
	"crypto/sha256"
	"strings"
)

type transportT struct{}

func (transportT) Send(to int32, b []byte) error { return nil }
func (transportT) Close() error                  { return nil }

type storeT struct{}

func (storeT) SaveSnapshot(b []byte) error       { return nil }
func (storeT) VerifyProof(b []byte) (int, error) { return 0, nil }
func (storeT) Height() (int64, error)            { return 0, nil }

func drops(tr transportT, st storeT) {
	_ = tr.Send(1, nil)         // want `error result of Send is assigned to _ on a send path`
	tr.Send(2, nil)             // want `error result of Send is silently dropped on a send path`
	n, _ := st.VerifyProof(nil) // want `error result of VerifyProof is assigned to _ on a verify path`
	_ = n
	_ = st.SaveSnapshot(nil) // want `error result of SaveSnapshot is assigned to _ on a persist path`
}

func deferredDrop(st storeT) {
	defer st.SaveSnapshot(nil) // want `error result of SaveSnapshot is silently dropped on a persist path`
}

func clean(tr transportT, st storeT) error {
	if err := tr.Send(1, nil); err != nil {
		return err
	}
	_, err := st.VerifyProof(nil)
	if err != nil {
		return err
	}
	_ = tr.Close()     // Close is outside the scoped verbs
	_, _ = st.Height() // Height is outside the scoped verbs
	return nil
}

func alwaysNilWriters() {
	var b bytes.Buffer
	b.WriteString("x") // bytes.Buffer errors are documented always-nil
	_, _ = b.Write(nil)
	var sb strings.Builder
	sb.WriteByte('x')
	h := sha256.New()
	h.Write([]byte("x")) // hash.Hash.Write is documented to never fail
	_ = b.String() + sb.String()
	_ = h.Sum(nil)
}

func suppressed(tr transportT, st storeT) {
	//smartlint:allow errdrop transport counts the drop; retransmit timer recovers
	_ = tr.Send(1, nil)
	_ = st.SaveSnapshot(nil) //smartlint:allow errdrop best-effort cache, rebuilt on restart
}
