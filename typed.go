package hear

import (
	"encoding/binary"
	"fmt"
	"math"

	"hear/internal/core"
	"hear/internal/hfp"
	"hear/internal/mpi"
)

// This file provides the typed entry points mirroring the (datatype, op)
// pairs libhear intercepts: MPI_INT/MPI_SUM, MPI_FLOAT/MPI_SUM, and the
// rest of Table 2. Each call is collective: every rank of the communicator
// must call the same method with the same element count in the same order.

// codec is the wire form of one element type: size little-endian bytes per
// element. put marshals vals into dst, get unmarshals len(out) elements of
// src; both are bulk so the data path pays one indirect call per block.
type codec[T any] struct {
	size int
	put  func(vals []T, dst []byte) error
	get  func(src []byte, out []T) error
}

var (
	int32Words   = codec[int32]{4, putInt32, getInt32}
	int64Words   = codec[int64]{8, putInt64[int64], getInt64[int64]}
	uint64Words  = codec[uint64]{8, putInt64[uint64], getInt64[uint64]}
	float32Words = codec[float32]{4, putFloat32, getFloat32}
	float64Words = codec[float64]{8, putFloat64, getFloat64}
)

func putInt32(vals []int32, dst []byte) error {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[i*4:], uint32(v))
	}
	return nil
}

func getInt32(src []byte, out []int32) error {
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(src[i*4:]))
	}
	return nil
}

func putInt64[T ~int64 | ~uint64](vals []T, dst []byte) error {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
	}
	return nil
}

func getInt64[T ~int64 | ~uint64](src []byte, out []T) error {
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return nil
}

func putFloat32(vals []float32, dst []byte) error {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(v))
	}
	return nil
}

func getFloat32(src []byte, out []float32) error {
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
	}
	return nil
}

func putFloat64(vals []float64, dst []byte) error {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
	return nil
}

func getFloat64(src []byte, out []float64) error {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return nil
}

// allreduceTyped is the body of every typed entry point: the first
// len(send) elements of recv receive the reduction of send across all ranks
// under the named scheme. recv may be send itself or not overlap it at all;
// elements of recv past len(send) are left alone.
func allreduceTyped[T any](c *Context, comm *mpi.Comm, kind SchemeKind, cd codec[T], send, recv []T) error {
	if len(recv) < len(send) {
		return fmt.Errorf("hear: recv %d < send %d", len(recv), len(send))
	}
	s, err := c.Scheme(kind)
	if err != nil {
		return err
	}
	return c.allreduce(comm, s, words[T]{cd, send, recv}, len(send))
}

// AllreduceInt64Sum computes the element-wise wrapping sum of send across
// all ranks into recv (which may alias send) under the integer SUM scheme
// (§5.1.1).
func (c *Context) AllreduceInt64Sum(comm *mpi.Comm, send, recv []int64) error {
	return allreduceTyped(c, comm, Int64Sum, int64Words, send, recv)
}

// AllreduceInt32Sum is the 32-bit variant (MPI_INT + MPI_SUM).
func (c *Context) AllreduceInt32Sum(comm *mpi.Comm, send, recv []int32) error {
	return allreduceTyped(c, comm, Int32Sum, int32Words, send, recv)
}

// AllreduceUint64Prod computes the element-wise wrapping product (§5.1.2).
func (c *Context) AllreduceUint64Prod(comm *mpi.Comm, send, recv []uint64) error {
	return allreduceTyped(c, comm, Int64Prod, uint64Words, send, recv)
}

// AllreduceUint64Xor computes the element-wise XOR (§5.1.3, MPI_BXOR).
func (c *Context) AllreduceUint64Xor(comm *mpi.Comm, send, recv []uint64) error {
	return allreduceTyped(c, comm, Int64Xor, uint64Words, send, recv)
}

// AllreduceFloat32Sum computes the element-wise float sum under the v1
// addition scheme (§5.3.3: temporal and local safety; choose γ via
// Options.Gamma). This is the MPI_FLOAT + MPI_SUM pair of the paper's DNN
// experiments.
func (c *Context) AllreduceFloat32Sum(comm *mpi.Comm, send, recv []float32) error {
	return allreduceTyped(c, comm, Float32Sum, float32Words, send, recv)
}

// AllreduceFloat32SumV2 uses the alternative log-space addition (§5.3.4),
// which restores global safety at the cost of precision and dynamic range.
func (c *Context) AllreduceFloat32SumV2(comm *mpi.Comm, send, recv []float32) error {
	return allreduceTyped(c, comm, Float32SumV2, float32Words, send, recv)
}

// AllreduceFloat32Prod computes the element-wise float product (§5.3.2).
func (c *Context) AllreduceFloat32Prod(comm *mpi.Comm, send, recv []float32) error {
	return allreduceTyped(c, comm, Float32Prod, float32Words, send, recv)
}

// AllreduceFloat64Sum is the FP64 v1 addition scheme.
func (c *Context) AllreduceFloat64Sum(comm *mpi.Comm, send, recv []float64) error {
	return allreduceTyped(c, comm, Float64Sum, float64Words, send, recv)
}

// AllreduceFloat64Prod is the FP64 multiplication scheme.
func (c *Context) AllreduceFloat64Prod(comm *mpi.Comm, send, recv []float64) error {
	return allreduceTyped(c, comm, Float64Prod, float64Words, send, recv)
}

// AllreduceFloat64SumV2 is the FP64 log-space addition.
func (c *Context) AllreduceFloat64SumV2(comm *mpi.Comm, send, recv []float64) error {
	return allreduceTyped(c, comm, Float64SumV2, float64Words, send, recv)
}

// AllreduceFixedSum sums real values on the shared fixed point grid (§5.2);
// inputs must be within the codec's range.
func (c *Context) AllreduceFixedSum(comm *mpi.Comm, send, recv []float64) error {
	return allreduceTyped(c, comm, FixedSum, float64Words, send, recv)
}

// AllreduceFixedProd multiplies real values on the fixed point grid; the
// output scale is corrected by the communicator size per §5.2.
func (c *Context) AllreduceFixedProd(comm *mpi.Comm, send, recv []float64) error {
	return allreduceTyped(c, comm, FixedProd, float64Words, send, recv)
}

// AllreduceBoolOr computes element-wise logical OR via the counting
// encoding of §5.4 (OR/AND have no inverse and cannot be encrypted
// directly; the count ride the SUM scheme at O(log₂P) extra bits).
func (c *Context) AllreduceBoolOr(comm *mpi.Comm, send, recv []bool) error {
	bc := core.BoolCodec{P: c.size}
	return allreduceTyped(c, comm, Int32Sum, codec[bool]{4, bc.EncodeBools, bc.DecodeOr}, send, recv)
}

// AllreduceBoolAnd computes element-wise logical AND via the same encoding.
func (c *Context) AllreduceBoolAnd(comm *mpi.Comm, send, recv []bool) error {
	bc := core.BoolCodec{P: c.size}
	return allreduceTyped(c, comm, Int32Sum, codec[bool]{4, bc.EncodeBools, bc.DecodeAnd}, send, recv)
}

// AllreduceRaw runs the encrypted collective directly on a wire-format
// buffer of n elements for the given scheme — the zero-marshalling path
// used by the throughput benchmarks. buf stays the caller's: it is
// encrypted from and decrypted into, never retained. The scheme must come
// from this context's rank (use Scheme).
func (c *Context) AllreduceRaw(comm *mpi.Comm, s core.Scheme, buf []byte, n int) error {
	if len(buf) < n*s.PlainSize() {
		return fmt.Errorf("hear: buffer %d B < %d elements × %d B", len(buf), n, s.PlainSize())
	}
	return c.allreduce(comm, s, rawWords{buf, s.PlainSize()}, n)
}

// SchemeKind names a scheme for Scheme lookups.
type SchemeKind string

// Scheme kinds accepted by Scheme.
const (
	Int32Sum     SchemeKind = "int32-sum"
	Int64Sum     SchemeKind = "int64-sum"
	Int64Prod    SchemeKind = "int64-prod"
	Int64Xor     SchemeKind = "int64-xor"
	Float32Sum   SchemeKind = "float32-sum"
	Float32Prod  SchemeKind = "float32-prod"
	Float32SumV2 SchemeKind = "float32-sum-v2"
	Float64Sum   SchemeKind = "float64-sum"
	Float64Prod  SchemeKind = "float64-prod"
	Float64SumV2 SchemeKind = "float64-sum-v2"
	FixedSum     SchemeKind = "fixed-sum"
	FixedProd    SchemeKind = "fixed-prod"
)

// Scheme returns this rank's instance of the named scheme, creating it on
// first use. Instances are cached per context, matching libhear's per-rank
// state.
func (c *Context) Scheme(kind SchemeKind) (core.Scheme, error) {
	switch kind {
	case Int32Sum:
		return c.intSum(32)
	case Int64Sum:
		return c.intSum(64)
	case Int64Prod:
		return c.intProd(64)
	case Int64Xor:
		return c.intXor(64)
	case Float32Sum:
		return c.floatSum(hfp.FP32)
	case Float32Prod:
		return c.floatProd(hfp.FP32)
	case Float32SumV2:
		return c.floatSumV2(hfp.FP32)
	case Float64Sum:
		return c.floatSum(hfp.FP64)
	case Float64Prod:
		return c.floatProd(hfp.FP64)
	case Float64SumV2:
		return c.floatSumV2(hfp.FP64)
	case FixedSum:
		return c.fixedSum()
	case FixedProd:
		return c.fixedProd()
	default:
		return nil, fmt.Errorf("hear: unknown scheme kind %q", kind)
	}
}
