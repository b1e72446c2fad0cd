// Package isa defines the abstract micro-op model shared by the pipeline
// simulator and the workload generators. A workload is a stream of Ops on
// the committed path; control-flow and faulting ops may carry a Transient
// body — the ops the out-of-order core executes speculatively and then
// squashes when the misprediction or fault resolves. Transient bodies are
// how the attack generators express Spectre/Meltdown disclosure gadgets.
package isa

// OpClass mirrors gem5's operation classes; the iq.fu_full::<class> and
// commit.op_class_0::<class> counter families are indexed by it. It is an
// int16 so an Op packs into one 64-byte host cache line.
type OpClass int16

const (
	NoOpClass OpClass = iota
	IntAlu
	IntMult
	IntDiv
	FloatAdd
	FloatCmp
	FloatCvt
	FloatMult
	FloatDiv
	FloatSqrt
	SimdAdd
	SimdAlu
	SimdCmp
	SimdCvt
	SimdMisc
	SimdMult
	SimdShift
	SimdFloatAdd
	SimdFloatMult
	MemRead
	MemWrite
	FloatMemRead
	FloatMemWrite
	InstPrefetch
	NumOpClasses
)

var opClassNames = [NumOpClasses]string{
	"No_OpClass", "IntAlu", "IntMult", "IntDiv", "FloatAdd", "FloatCmp",
	"FloatCvt", "FloatMult", "FloatDiv", "FloatSqrt", "SimdAdd", "SimdAlu",
	"SimdCmp", "SimdCvt", "SimdMisc", "SimdMult", "SimdShift",
	"SimdFloatAdd", "SimdFloatMult", "MemRead", "MemWrite", "FloatMemRead",
	"FloatMemWrite", "InstPrefetch",
}

// String returns the gem5-style class name.
func (c OpClass) String() string {
	if c < 0 || c >= NumOpClasses {
		return "invalid"
	}
	return opClassNames[c]
}

// Kind is the structural kind of an op, orthogonal to its FU class.
type Kind int8

const (
	// KindPlain is a non-memory, non-control computational op.
	KindPlain Kind = iota
	// KindLoad reads memory at Addr.
	KindLoad
	// KindStore writes memory at Addr.
	KindStore
	// KindBranch is a conditional branch; Taken is the actual direction.
	KindBranch
	// KindCall pushes Target's return address on the RAS.
	KindCall
	// KindRet returns; Target is the actual return address.
	KindRet
	// KindIndirect is an indirect jump/call; Target is the actual target.
	KindIndirect
	// KindFlush is CLFLUSH of Addr: non-speculative, serializing at commit.
	KindFlush
	// KindFence is a memory barrier (mfence/lfence).
	KindFence
	// KindSerialize is a fully serializing instruction (cpuid-like).
	KindSerialize
	// KindQuiesce is a pause/monitor-style wait of WaitCycles cycles, the
	// idle "wait for the victim" phase of cache attacks.
	KindQuiesce
	// KindNop commits without doing work.
	KindNop
)

// Op is one micro-operation on the committed path. The small fields lead so
// an Op is 64 bytes: ops are copied by value throughout the pipeline.
type Op struct {
	Class OpClass
	Kind  Kind

	// Shared marks loads of shared (library) pages, which travel as
	// ReadSharedReq bus transactions — the Flush+Reload substrate.
	Shared bool

	// Taken is the actual direction of a KindBranch.
	Taken bool

	// DependsOnPrev serializes this op's execution behind the previous
	// op's completion (address dependence: pointer chasing, or the
	// secret-dependent index of a disclosure gadget).
	DependsOnPrev bool

	// FBRead marks an MDS-style load that samples the line fill buffer
	// (the CacheOut primitive).
	FBRead bool

	// AddrDelayed marks a store whose address resolves late (dependent on
	// a slow computation). Younger loads to the same line speculatively
	// bypass it and read stale data — the SpectreV4 (speculative store
	// bypass) window. Such loads run their Transient body when the bypass
	// occurs and are then replayed.
	AddrDelayed bool

	PC   uint64 // instruction address (drives I-cache and predictors)
	Addr uint64 // data address for loads/stores/flushes

	// Target is the actual target of calls/returns/indirect branches.
	Target uint64

	// WaitCycles is the quiesce duration for KindQuiesce.
	WaitCycles uint64

	// Transient is executed speculatively and squashed when this op turns
	// out to be a mispredicted branch/return/indirect or a faulting load.
	// It is ignored for ops that resolve correctly.
	Transient []Op
}

// IsMem reports whether the op accesses data memory.
func (o *Op) IsMem() bool {
	return o.Kind == KindLoad || o.Kind == KindStore
}

// IsControl reports whether the op is a control-flow instruction.
func (o *Op) IsControl() bool {
	switch o.Kind {
	case KindBranch, KindCall, KindRet, KindIndirect:
		return true
	}
	return false
}

// IsSerializing reports whether the op drains the pipeline before commit.
func (o *Op) IsSerializing() bool {
	switch o.Kind {
	case KindFlush, KindFence, KindSerialize:
		return true
	}
	return false
}

// DefaultClass returns a sensible FU class for a kind when the generator
// does not specify one.
func DefaultClass(k Kind) OpClass {
	switch k {
	case KindLoad:
		return MemRead
	case KindStore:
		return MemWrite
	case KindBranch, KindCall, KindRet, KindIndirect:
		return IntAlu
	case KindFlush, KindFence, KindSerialize, KindQuiesce, KindNop:
		return NoOpClass
	default:
		return IntAlu
	}
}

// Stream is a pull-based op source. Next returns the next committed-path op;
// ok is false when the program ends.
//
// The op belongs to the stream and stays valid only until the next call to
// Next: a stream hands out a pointer into its own buffer instead of copying
// the op, so a consumer that keeps an op past that point must copy it. The
// consumer may fill in the op's Class (the pipeline defaults an unset one),
// but must not change anything else.
type Stream interface {
	Next() (op *Op, ok bool)
}

// SliceStream adapts a fixed op slice into a Stream. Its ops point into the
// slice.
type SliceStream struct {
	ops []Op
	i   int
}

// NewSliceStream returns a Stream over ops.
func NewSliceStream(ops []Op) *SliceStream { return &SliceStream{ops: ops} }

// Next implements Stream.
func (s *SliceStream) Next() (*Op, bool) {
	if s.i >= len(s.ops) {
		return nil, false
	}
	s.i++
	return &s.ops[s.i-1], true
}

// FuncStream adapts a generator function into a Stream.
type FuncStream func() (*Op, bool)

// Next implements Stream.
func (f FuncStream) Next() (*Op, bool) { return f() }
