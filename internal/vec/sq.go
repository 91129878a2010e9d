package vec

import "fmt"

// Scalar-quantised (SQ) code kernels. A code is one byte per dimension, and
// its decoded value at dimension j is lo[j] + float32(c[j])*step[j]. The
// squared distance from a full-precision x to a code is one serial chain,
//
//	s += (x[j] - (lo[j] + float32(c[j])*step[j]))²   for j = 0, 1, …, d-1,
//
// and that chain is the SQ reduction-order contract (DESIGN.md "Kernels &
// scratch buffers"): no kernel splits it into partial sums, because the
// roundings of exactly this sequence are what every stored HNSW-SQ graph was
// built with. The batch kernels win from the other direction — lanes are
// codes: the SSE kernels keep four codes (gathered, or one group of a decoded
// lane block) in one register, each lane running the scalar sequence step
// for step, and a packed SSE operation rounds every lane exactly as its
// scalar SSE form does. Without assembly the batch entry points loop over
// the scalar chain (a pure-Go four-lane interleave measured slower than the
// plain loop). Every Go loop here keeps the scalar expression shapes, so a
// platform that fuses multiply-adds fuses them identically in each.

// SQL2Sq returns the squared Euclidean distance between x and the decoded
// code: the serial chain above. len(lo), len(step) and len(x) must be at
// least len(code).
func SQL2Sq(x, lo, step []float32, code []byte) float32 {
	var s float32
	for j, c := range code {
		d := x[j] - (lo[j] + float32(c)*step[j])
		s += d * d
	}
	return s
}

// SQL2SqBatch writes SQL2Sq(x, lo, step, code) into out[i] for the code
// codes[ids[i]*d:(ids[i]+1)*d], where d = len(x). Every out[i] is
// bit-identical to the scalar call; ids may repeat.
//
//annlint:hotpath
func SQL2SqBatch(x, lo, step []float32, codes []byte, ids []int32, out []float32) {
	if len(ids) != len(out) || len(lo) != len(x) || len(step) != len(x) {
		panic(fmt.Sprintf("vec: SQ batch of %d ids into %d outputs, dim %d with %d/%d codec entries", len(ids), len(out), len(x), len(lo), len(step)))
	}
	sqL2SqBatch(x, lo, step, codes, ids, out)
}

// A lane block holds decoded codes four to a group, interleaved by
// dimension: group g is 4·d floats, and lane 4g+l's value at dimension j is
// block[4·d·g + 4·j + l]. Scoring x against it loads the four lanes of one
// dimension with one vector load and subtracts one broadcast x[j].

// LaneBlockLen is the length of a lane block holding lanes decoded d-float
// codes.
func LaneBlockLen(lanes, d int) int { return (lanes + 3) / 4 * 4 * d }

// SQDecodeLane decodes code into the given lane of block: the decoded value
// of SQL2Sq, computed once and kept, so scoring against the lane costs two
// operations a dimension fewer.
func SQDecodeLane(block, lo, step []float32, code []byte, lane int) {
	d := len(code)
	g := block[lane/4*4*d : (lane/4+1)*4*d]
	l := lane % 4
	for j, c := range code {
		g[4*j+l] = lo[j] + float32(c)*step[j]
	}
}

// L2SqLanes writes the squared Euclidean distance between x and lane i of
// block into out[i], for the first len(out) lanes; block must hold
// LaneBlockLen(len(out), len(x)) floats. Each out[i] is bit-identical to
// SQL2Sq on the code the lane was decoded from. The padding lanes of a last,
// partial group are scored and discarded, whatever they hold.
//
//annlint:hotpath
func L2SqLanes(x, block, out []float32) {
	d, n := len(x), len(out)
	if len(block) < LaneBlockLen(n, d) {
		panic(fmt.Sprintf("vec: lane block of %d floats for %d lanes of dim %d", len(block), n, d))
	}
	full := n &^ 3
	l2sqLanes(x, block[:full*d], out[:full])
	if full < n {
		var t [4]float32
		l2sqLanes(x, block[full*d:(full+4)*d], t[:])
		copy(out[full:], t[:n-full])
	}
}

// sqL2SqBatchGo is the portable SQL2SqBatch: the scalar chain per id.
func sqL2SqBatchGo(x, lo, step []float32, codes []byte, ids []int32, out []float32) {
	d := len(x)
	for i, id := range ids {
		out[i] = SQL2Sq(x, lo, step, codes[int(id)*d:(int(id)+1)*d])
	}
}

// l2sqLanesGo is the portable lane kernel over whole groups (len(out) is a
// multiple of four): the scalar chain per lane, on the decoded values.
func l2sqLanesGo(x, block, out []float32) {
	d := len(x)
	for i := range out {
		g := block[i/4*4*d : (i/4+1)*4*d]
		l := i % 4
		var s float32
		for j, xj := range x {
			t := xj - g[4*j+l]
			s += t * t
		}
		out[i] = s
	}
}
