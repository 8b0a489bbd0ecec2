package client

import (
	"context"
	"sync"
	"testing"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// stubEndpoint is a scripted network: it records what the proxy sends and
// delivers exactly the replies a test injects, in the order it injects them.
type stubEndpoint struct {
	// in is unbuffered on purpose: the proxy's receive loop takes one message
	// at a time, so an inject that returns proves every EARLIER message has
	// been fully processed.
	in chan transport.Message

	mu   sync.Mutex
	sent []smr.Request // one entry per request broadcast (the copy sent to member 0)
	// ordered carries each ordered request the proxy broadcasts — the event a
	// fallback test waits on.
	ordered   chan smr.Request
	closeOnce sync.Once
}

func newStubEndpoint() *stubEndpoint {
	return &stubEndpoint{
		in:      make(chan transport.Message),
		ordered: make(chan smr.Request, 4), // a test issues at most a handful of calls
	}
}

func (s *stubEndpoint) ID() int32                         { return transport.ClientIDBase }
func (s *stubEndpoint) Receive() <-chan transport.Message { return s.in }
func (s *stubEndpoint) Close() error {
	s.closeOnce.Do(func() { close(s.in) })
	return nil
}

func (s *stubEndpoint) Send(to int32, typ uint16, payload []byte) error {
	if typ != smr.MsgRequest || to != 0 {
		return nil
	}
	req, err := smr.DecodeRequest(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.sent = append(s.sent, req)
	s.mu.Unlock()
	if !req.Unordered() {
		s.ordered <- req
	}
	return nil
}

// orderedSent counts the ordered requests broadcast so far.
func (s *stubEndpoint) orderedSent() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.sent {
		if !s.sent[i].Unordered() {
			n++
		}
	}
	return n
}

// reply is one scripted replica answer.
type reply struct {
	from   int32
	result string // "" with behind set: a read-floor miss
	behind bool
}

var stubMembers = []int32{0, 1, 2, 3}

// inject delivers r as replica r.from's answer to req and returns once the
// proxy took it off the wire.
func (s *stubEndpoint) inject(req smr.Request, r reply) {
	rep := smr.Reply{
		ReplicaID: r.from,
		ClientID:  req.ClientID,
		Seq:       req.Seq,
		Digest:    req.Digest(),
		Tag:       smr.ViewTag{ViewID: 0, MemberHash: view.MembershipHash(0, stubMembers), Height: 1},
	}
	if r.behind {
		rep.Flags = smr.ReplyFlagBehind
	} else {
		rep.Result = []byte(r.result)
	}
	s.in <- transport.Message{From: r.from, To: s.ID(), Type: smr.MsgReply, Payload: rep.Encode()}
}

// settle returns once every reply injected before it has been processed: the
// receive loop only comes back for this (ignored) message after finishing
// the previous one.
func (s *stubEndpoint) settle() {
	s.in <- transport.Message{From: 0, To: s.ID(), Type: 0}
}

// TestUnorderedReadQuorumTracking drives the proxy's unordered-read vote
// counting against scripted replies, with retransmission out of the picture
// (one-hour tick): what completes a read, what makes it fall back to an
// ordered request at once, and what keeps it waiting are decided by the
// replies alone. n = 4, f = 1, quorum 3.
func TestUnorderedReadQuorumTracking(t *testing.T) {
	const (
		unordered = "completes unordered"
		fallback  = "falls back to an ordered read"
		waiting   = "keeps waiting"
	)
	cases := []struct {
		name    string
		replies []reply
		want    string
		result  string // for unordered completions
	}{
		{
			// (i) best group 2, nobody left to hear from: 2 < 3.
			name:    "diverged a,a,b,c",
			replies: []reply{{0, "a", false}, {1, "a", false}, {2, "b", false}, {3, "c", false}},
			want:    fallback,
		},
		{
			// (ii) the silent member could still side with the two.
			name:    "a,a,b with one member silent",
			replies: []reply{{0, "a", false}, {1, "a", false}, {2, "b", false}},
			want:    waiting,
		},
		{
			// (iii) one liar cannot force the fallback, however often it
			// changes its story: it holds one vote.
			name: "a liar and three matching honest replies",
			replies: []reply{{3, "x", false}, {3, "y", false}, {3, "", true}, {3, "z", false},
				{0, "a", false}, {1, "a", false}, {2, "a", false}},
			want:   unordered,
			result: "a",
		},
		{
			// (iv) replica 0 re-answers: its vote moves from a to b. Counted
			// in both groups it would complete "a" with replicas 0, 1 and 3;
			// with one vote each it is two against two.
			name: "a re-answering replica moves its vote",
			replies: []reply{{0, "a", false}, {1, "a", false}, {0, "b", false}, {2, "b", false},
				{3, "a", false}},
			want: fallback,
		},
		{
			name:    "a moved vote completes the other group",
			replies: []reply{{0, "a", false}, {1, "b", false}, {2, "b", false}, {0, "b", false}},
			want:    unordered,
			result:  "b",
		},
		{
			// Two members behind the floor leave two: no quorum of 3.
			name:    "two behind reports",
			replies: []reply{{0, "", true}, {1, "", true}},
			want:    fallback,
		},
		{
			name:    "one behind report, others may still match",
			replies: []reply{{0, "", true}, {1, "a", false}, {2, "a", false}},
			want:    waiting,
		},
		{
			// A replica that answered behind and then served the read (it
			// caught up) counts with its served result.
			name:    "behind superseded by a served result",
			replies: []reply{{0, "", true}, {1, "a", false}, {2, "a", false}, {0, "a", false}},
			want:    unordered,
			result:  "a",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ep := newStubEndpoint()
			p := New(ep, crypto.SeededKeyPair("cl", 31), stubMembers,
				WithRetry(time.Hour), WithTimeout(10*time.Second))
			defer p.Close()

			fut := p.InvokeUnorderedAsync(context.Background(), []byte("balance?"))
			ep.mu.Lock()
			read := ep.sent[0] // register broadcasts before returning
			ep.mu.Unlock()
			if !read.Unordered() {
				t.Fatal("first request is not the unordered read")
			}
			for _, r := range tc.replies {
				ep.inject(read, r)
			}
			ep.settle()

			switch tc.want {
			case waiting:
				p.mu.Lock()
				_, pending := p.calls[read.Seq]
				p.mu.Unlock()
				if !pending {
					t.Fatal("the read was decided although a quorum could still form")
				}
				if n := ep.orderedSent(); n != 0 {
					t.Fatalf("%d ordered requests sent while the read is pending", n)
				}
			case unordered:
				res, err := fut.Result()
				if err != nil || string(res) != tc.result {
					t.Fatalf("result %q, err %v; want %q", res, err, tc.result)
				}
				if n := ep.orderedSent(); n != 0 {
					t.Fatalf("read consumed %d ordered requests", n)
				}
			case fallback:
				var ordered smr.Request
				select {
				case ordered = <-ep.ordered:
				case <-time.After(5 * time.Second):
					t.Fatal("no ordered fallback although no quorum of matching replies can form")
				}
				if string(ordered.Op) != "balance?" {
					t.Fatalf("fallback op %q", ordered.Op)
				}
				for _, from := range []int32{0, 1, 2} {
					ep.inject(ordered, reply{from: from, result: "ordered"})
				}
				res, err := fut.Result()
				if err != nil || string(res) != "ordered" {
					t.Fatalf("fallback result %q, err %v", res, err)
				}
			}
		})
	}
}
