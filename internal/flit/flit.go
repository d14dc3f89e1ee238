// Package flit models the units of data moved by a wormhole network:
// packets and the flits (flow-control digits) they are divided into.
//
// In a wormhole network only the head flit of a packet carries routing
// information; the remaining flits follow the path reserved by the
// head. A scheduler therefore cannot, in general, know how long a
// packet is (or how long it will occupy an output) until the tail flit
// has been forwarded. The types in this package keep packet length
// observable to the simulation infrastructure while the scheduling
// interfaces in package sched deliberately withhold it from the
// disciplines that must not use it.
package flit

import (
	"errors"
	"fmt"
)

// Kind identifies a flit's position within its packet.
type Kind uint8

const (
	// Head is the first flit of a packet. It is the only flit that
	// carries routing information in a wormhole network.
	Head Kind = iota
	// Body is an interior flit.
	Body
	// Tail is the last flit of a packet; forwarding it releases the
	// resources the head flit reserved.
	Tail
	// HeadTail marks the single flit of a one-flit packet.
	HeadTail
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "head+tail"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// DefaultFlitBytes is the flit width used throughout the paper's
// simulations: 8 bytes per flit (Section 5).
const DefaultFlitBytes = 8

// Flit is a single flow-control digit.
type Flit struct {
	// Flow is the id of the flow (or virtual channel) the flit belongs
	// to. Flit-granularity schedulers such as FBRR require every flit
	// to be tagged with its flow.
	Flow int
	// Kind is the flit's position within its packet.
	Kind Kind
	// Traced marks a flit of a packet the flight recorder sampled.
	// Stamped once at injection (a pure function of the trace seed
	// and PktID, so every stepping mode stamps identically) and
	// carried hop to hop, it lets routers skip every tracer call for
	// unsampled traffic without rehashing the id. False whenever no
	// recorder is attached.
	Traced bool
	// Seq is the flit's 0-based index within its packet.
	Seq int
	// Dst is the destination carried by the head flit (meaningful only
	// when Kind is Head or HeadTail); used by the NoC substrate.
	Dst int
	// PktID is the id of the packet the flit belongs to, used by the
	// NoC substrate for end-to-end latency accounting.
	PktID int64
}

// Packet is a unit of scheduling: a sequence of flits that must be
// forwarded contiguously into an output queue.
type Packet struct {
	// Flow is the id of the flow the packet belongs to.
	Flow int
	// Length is the packet length in flits. Always >= 1.
	Length int
	// Dst is the destination node (used by the NoC substrate; zero for
	// the single-server experiments).
	Dst int
	// Arrival is the cycle at which the packet was enqueued, used for
	// delay measurement.
	Arrival int64
	// ID is a unique id assigned by the source, for tracing.
	ID int64
}

// Bytes returns the packet size in bytes for the given flit width.
func (p Packet) Bytes(flitBytes int) int { return p.Length * flitBytes }

// FlitAt returns the i-th flit of the packet (0 <= i < p.Length).
// It panics if i is out of range, mirroring slice indexing.
func (p Packet) FlitAt(i int) Flit {
	if i < 0 || i >= p.Length {
		panic(fmt.Sprintf("flit: index %d out of range for packet of %d flits", i, p.Length))
	}
	return Flit{Flow: p.Flow, Kind: kindAt(i, p.Length), Seq: i, Dst: p.Dst, PktID: p.ID}
}

// Flits materialises the packet as a slice of flits. Intended for
// tests and for the flit-granularity paths of the switch substrate;
// the single-server engine never materialises flits.
func (p Packet) Flits() []Flit {
	fs := make([]Flit, p.Length)
	for i := range fs {
		fs[i] = p.FlitAt(i)
	}
	return fs
}

// AppendFlits appends the packet's flits to dst and returns the
// extended slice — the allocation-free counterpart of Flits for hot
// injection paths that reuse one buffer across packets.
func (p Packet) AppendFlits(dst []Flit) []Flit {
	for i := 0; i < p.Length; i++ {
		dst = append(dst, Flit{Flow: p.Flow, Kind: kindAt(i, p.Length), Seq: i, Dst: p.Dst, PktID: p.ID})
	}
	return dst
}

// String implements fmt.Stringer.
func (p Packet) String() string {
	return fmt.Sprintf("pkt{flow=%d len=%d dst=%d id=%d}", p.Flow, p.Length, p.Dst, p.ID)
}

func kindAt(i, length int) Kind {
	switch {
	case length == 1:
		return HeadTail
	case i == 0:
		return Head
	case i == length-1:
		return Tail
	default:
		return Body
	}
}

// Typed validation errors. Injection points (engine.Inject, the NoC
// injector, the test harness) reject malformed packets with one of
// these instead of panicking, so a fault-injected or adversarial
// source degrades into counted rejections rather than a crash. Match
// with errors.Is.
var (
	// ErrZeroLength marks a packet with no flits (Length < 1).
	ErrZeroLength = errors.New("flit: packet length < 1")
	// ErrBadFlow marks a negative (or otherwise unroutable) flow id.
	ErrBadFlow = errors.New("flit: bad flow id")
	// ErrMissingTail marks a flit sequence that ends without a tail.
	ErrMissingTail = errors.New("flit: missing tail flit")
	// ErrDuplicateHead marks a head flit arriving inside an open packet.
	ErrDuplicateHead = errors.New("flit: duplicate head flit")
	// ErrBadSequence marks out-of-order, mixed-packet, or truncated
	// flit sequences.
	ErrBadSequence = errors.New("flit: bad flit sequence")
)

// Validate reports whether the packet is well formed.
func (p Packet) Validate() error {
	if p.Length < 1 {
		return fmt.Errorf("%w: length %d", ErrZeroLength, p.Length)
	}
	if p.Flow < 0 {
		return fmt.Errorf("%w: flow %d", ErrBadFlow, p.Flow)
	}
	return nil
}

// ValidateFlits checks that a flit sequence forms exactly the
// well-formed packets a wormhole channel may carry: each packet opens
// with a Head (or is a single HeadTail), continues with Body flits of
// the same packet in Seq order, and closes with its Tail — no
// interleaving, no duplicate heads, no missing tails. It returns nil
// for an empty sequence and a typed error (ErrMissingTail,
// ErrDuplicateHead, ErrBadSequence, ErrBadFlow) naming the offending
// index otherwise. This is the oracle the invariant checker applies
// to delivered flit streams.
func ValidateFlits(fs []Flit) error {
	open := false     // inside a packet (head seen, tail pending)
	var id int64      // PktID of the open packet
	var flow, seq int // flow and next expected Seq of the open packet
	for i, f := range fs {
		if f.Flow < 0 {
			return fmt.Errorf("%w: flit %d flow %d", ErrBadFlow, i, f.Flow)
		}
		switch f.Kind {
		case HeadTail:
			if open {
				return fmt.Errorf("%w: flit %d opens a packet while packet %d is open", ErrDuplicateHead, i, id)
			}
		case Head:
			if open {
				return fmt.Errorf("%w: flit %d opens a packet while packet %d is open", ErrDuplicateHead, i, id)
			}
			open, id, flow, seq = true, f.PktID, f.Flow, 1
		case Body, Tail:
			if !open {
				return fmt.Errorf("%w: flit %d (%v) without a head", ErrBadSequence, i, f.Kind)
			}
			if f.PktID != id || f.Flow != flow {
				return fmt.Errorf("%w: flit %d belongs to packet %d, expected %d", ErrBadSequence, i, f.PktID, id)
			}
			if f.Seq != seq {
				return fmt.Errorf("%w: flit %d has seq %d, expected %d", ErrBadSequence, i, f.Seq, seq)
			}
			seq++
			if f.Kind == Tail {
				open = false
			}
		default:
			return fmt.Errorf("%w: flit %d has unknown kind %d", ErrBadSequence, i, uint8(f.Kind))
		}
	}
	if open {
		return fmt.Errorf("%w: packet %d still open at end of sequence", ErrMissingTail, id)
	}
	return nil
}
