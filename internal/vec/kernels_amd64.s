//go:build !purego

#include "textflag.h"

// SSE batch kernels: score one query against four rows in a single pass,
// either four gathered rows (dot4SSE/l2sq4SSE) or consecutive groups of four
// packed rows without returning to Go in between (dotRowsSSE/l2sqRowsSSE).
//
// Bit-identity with the scalar kernels is by construction, not by luck. The
// scalar path keeps four partial accumulators s0..s3 (s_j sums elements
// j, j+4, j+8, ...) and reduces them as ((s0+s1)+s2)+s3. Here each row gets
// one XMM accumulator (X0..X3) whose lane j plays the role of s_j:
// MULPS/ADDPS are IEEE-exact per lane, so after the loop lane j holds exactly
// the scalar s_j. REDUCE4 then transposes the 4x4 block of lanes, so that
// register j holds s_j of all four rows, and adds the registers in the scalar
// order: lane i of the result is ((s0+s1)+s2)+s3 of row i, the same three
// additions on the same operands as a per-row shuffle ladder, four rows at a
// time. Remainder elements (d%4) are added by the Go wrapper after the
// reduction, again matching the scalar order. Any change here must keep that
// order — the property tests in batch_test.go compare bit patterns.
//
// Register use, all four kernels: AX = q, BX/CX/DX/SI = the four rows,
// R10 = byte offset into q and the rows, R11 = byte length of the d&^3
// prefix (callers guarantee d >= 4, so the do-while loop runs at least once).

// One 4-float step of one row: acc += q[j..j+3] * row[j..j+3], lane-wise.
#define DOT_ROW(row, acc) \
	MOVUPS (row)(R10*1), X5; \
	MULPS  X4, X5;           \
	ADDPS  X5, acc

// As DOT_ROW for squared differences. It computes (row-q) rather than
// (q-row): negation is exact and the difference is immediately squared, so
// the result is bit-identical to the scalar (q-row)^2 accumulation.
#define L2SQ_ROW(row, acc) \
	MOVUPS (row)(R10*1), X5; \
	SUBPS  X4, X5;           \
	MULPS  X5, X5;           \
	ADDPS  X5, acc

// ACCUMULATE4 runs ROW over the d&^3 prefix of the four rows, leaving row i's
// partial sums in the lanes of Xi.
#define ACCUMULATE4(ROW, loop) \
	XORPS  X0, X0;         \
	XORPS  X1, X1;         \
	XORPS  X2, X2;         \
	XORPS  X3, X3;         \
	XORQ   R10, R10;       \
loop:                      \
	MOVUPS (AX)(R10*1), X4; \
	ROW(BX, X0);           \
	ROW(CX, X1);           \
	ROW(DX, X2);           \
	ROW(SI, X3);           \
	ADDQ   $16, R10;       \
	CMPQ   R10, R11;       \
	JLT    loop

// REDUCE4 leaves ((s0+s1)+s2)+s3 of row i in lane i of X0, where s_j is lane
// j of Xi on entry: a 4x4 transpose, then three lane-wise adds.
#define REDUCE4 \
	MOVAPS   X0, X5; \
	UNPCKLPS X1, X0; /* X0 = a0 b0 a1 b1 */ \
	UNPCKHPS X1, X5; /* X5 = a2 b2 a3 b3 */ \
	MOVAPS   X2, X6; \
	UNPCKLPS X3, X2; /* X2 = c0 e0 c1 e1 */ \
	UNPCKHPS X3, X6; /* X6 = c2 e2 c3 e3 */ \
	MOVAPS   X0, X7; \
	MOVLHPS  X2, X0; /* X0 = a0 b0 c0 e0 = s0 of rows 0..3 */ \
	MOVHLPS  X7, X2; /* X2 = a1 b1 c1 e1 = s1 */ \
	MOVAPS   X5, X7; \
	MOVLHPS  X6, X5; /* X5 = a2 b2 c2 e2 = s2 */ \
	MOVHLPS  X7, X6; /* X6 = a3 b3 c3 e3 = s3 */ \
	ADDPS    X2, X0; \
	ADDPS    X5, X0; \
	ADDPS    X6, X0

// GATHER4 is the body of a four-gathered-rows kernel.
#define GATHER4(ROW) \
	MOVQ q+0(FP), AX;   \
	MOVQ r0+8(FP), BX;  \
	MOVQ r1+16(FP), CX; \
	MOVQ r2+24(FP), DX; \
	MOVQ r3+32(FP), SI; \
	MOVQ n+40(FP), R11; \
	ANDQ $~3, R11;      \
	SHLQ $2, R11;       \
	ACCUMULATE4(ROW, loop); \
	REDUCE4;            \
	MOVSS  X0, d0+48(FP); \
	SHUFPS $0x39, X0, X0; \
	MOVSS  X0, d1+52(FP); \
	SHUFPS $0x39, X0, X0; \
	MOVSS  X0, d2+56(FP); \
	SHUFPS $0x39, X0, X0; \
	MOVSS  X0, d3+60(FP); \
	RET

// ROWS4 is the body of a packed-rows kernel: groups consecutive groups of
// four rows of d floats each, one 16-byte store of four results per group.
// R8 = row stride in bytes, R9 = groups left, DI = out.
#define ROWS4(ROW) \
	MOVQ  q+0(FP), AX;       \
	MOVQ  rows+8(FP), BX;    \
	MOVQ  out+16(FP), DI;    \
	MOVQ  d+24(FP), R8;      \
	MOVQ  groups+32(FP), R9; \
	MOVQ  R8, R11;           \
	ANDQ  $~3, R11;          \
	SHLQ  $2, R11;           \
	SHLQ  $2, R8;            \
	TESTQ R9, R9;            \
	JZ    done;              \
group:                       \
	LEAQ  (BX)(R8*1), CX;    \
	LEAQ  (CX)(R8*1), DX;    \
	LEAQ  (DX)(R8*1), SI;    \
	ACCUMULATE4(ROW, loop);  \
	REDUCE4;                 \
	MOVUPS X0, (DI);         \
	ADDQ  $16, DI;           \
	LEAQ  (SI)(R8*1), BX;    \
	DECQ  R9;                \
	JNZ   group;             \
done:                        \
	RET

// func dot4SSE(q, r0, r1, r2, r3 *float32, n int) (d0, d1, d2, d3 float32)
TEXT ·dot4SSE(SB), NOSPLIT, $0-64
	GATHER4(DOT_ROW)

// func l2sq4SSE(q, r0, r1, r2, r3 *float32, n int) (d0, d1, d2, d3 float32)
TEXT ·l2sq4SSE(SB), NOSPLIT, $0-64
	GATHER4(L2SQ_ROW)

// func dotRowsSSE(q, rows, out *float32, d, groups int)
TEXT ·dotRowsSSE(SB), NOSPLIT, $0-40
	ROWS4(DOT_ROW)

// func l2sqRowsSSE(q, rows, out *float32, d, groups int)
TEXT ·l2sqRowsSSE(SB), NOSPLIT, $0-40
	ROWS4(L2SQ_ROW)

// SQ kernels (sq.go). The contract is different from the one above: an SQ
// distance is ONE serial chain over the dimensions, s += (x−(lo+c·step))², so
// a chain is never split across lanes. Lanes are codes instead: lane i of an
// accumulator is code i's s, and every packed step below is the scalar
// step's operation on the scalar step's operands (MULPS/ADDPS/SUBPS round
// per lane exactly like MULSS/ADDSS/SUBSS), so lane i ends bit-identical to
// the scalar loop. The subtraction keeps the scalar operand order, x − r.

// One dimension of sqL2Sq4SSE: codes holds the four codes' values at the
// dimension as floats, k selects the dimension's lane of X8 (lo), X9 (step)
// and X10 (x); X0 += (x − (c·step + lo))² lane-wise.
#define SQ_DIM(codes, k) \
	PSHUFD k, X9, X11;  \
	MULPS  X11, codes;  \
	PSHUFD k, X8, X11;  \
	ADDPS  X11, codes;  \
	PSHUFD k, X10, X11; \
	SUBPS  codes, X11;  \
	MULPS  X11, X11;    \
	ADDPS  X11, X0

// func sqL2Sq4SSE(x, lo, step *float32, c0, c1, c2, c3 *byte, n int) (d0, d1, d2, d3 float32)
//
// Four dimensions per iteration: the four codes' bytes j..j+3 are loaded as
// one dword each, transposed (PUNPCKLBW/PUNPCKLWL) so that byte 4k+i is code
// i at dimension j+k, zero-extended to dwords and converted to floats, one
// register per dimension. AX = x, BX = lo, CX = step, DX/SI/DI/R8 = codes,
// R9 = n&^3, R10 = j, X7 = 0. Callers guarantee n >= 4.
TEXT ·sqL2Sq4SSE(SB), NOSPLIT, $0-80
	MOVQ  x+0(FP), AX
	MOVQ  lo+8(FP), BX
	MOVQ  step+16(FP), CX
	MOVQ  c0+24(FP), DX
	MOVQ  c1+32(FP), SI
	MOVQ  c2+40(FP), DI
	MOVQ  c3+48(FP), R8
	MOVQ  n+56(FP), R9
	ANDQ  $~3, R9
	XORPS X0, X0
	PXOR  X7, X7
	XORQ  R10, R10

sqloop:
	MOVSS     (DX)(R10*1), X1
	MOVSS     (SI)(R10*1), X2
	MOVSS     (DI)(R10*1), X3
	MOVSS     (R8)(R10*1), X4
	PUNPCKLBW X2, X1        // a0 b0 a1 b1 a2 b2 a3 b3
	PUNPCKLBW X4, X3        // c0 e0 c1 e1 c2 e2 c3 e3
	PUNPCKLWL X3, X1        // a0 b0 c0 e0 a1 b1 c1 e1 ... a3 b3 c3 e3
	MOVO      X1, X3
	PUNPCKLBW X7, X1        // words, dimensions j and j+1
	PUNPCKHBW X7, X3        // words, dimensions j+2 and j+3
	MOVO      X1, X2
	PUNPCKLWL X7, X1
	PUNPCKHWL X7, X2
	MOVO      X3, X4
	PUNPCKLWL X7, X3
	PUNPCKHWL X7, X4
	CVTPL2PS  X1, X1
	CVTPL2PS  X2, X2
	CVTPL2PS  X3, X3
	CVTPL2PS  X4, X4
	MOVUPS    (BX)(R10*4), X8
	MOVUPS    (CX)(R10*4), X9
	MOVUPS    (AX)(R10*4), X10
	SQ_DIM(X1, $0x00)
	SQ_DIM(X2, $0x55)
	SQ_DIM(X3, $0xAA)
	SQ_DIM(X4, $0xFF)
	ADDQ      $4, R10
	CMPQ      R10, R9
	JLT       sqloop

	MOVSS  X0, d0+64(FP)
	SHUFPS $0x39, X0, X0
	MOVSS  X0, d1+68(FP)
	SHUFPS $0x39, X0, X0
	MOVSS  X0, d2+72(FP)
	SHUFPS $0x39, X0, X0
	MOVSS  X0, d3+76(FP)
	RET

// func l2sqLanesSSE(x, block, out *float32, d, groups int)
//
// One group per pass, one accumulator: lane i of X0 is lane i's chain.
// AX = x, BX walks the block 16 bytes per dimension, DI = out, R8 = d,
// R9 = groups left, R10 = j.
TEXT ·l2sqLanesSSE(SB), NOSPLIT, $0-40
	MOVQ  x+0(FP), AX
	MOVQ  block+8(FP), BX
	MOVQ  out+16(FP), DI
	MOVQ  d+24(FP), R8
	MOVQ  groups+32(FP), R9
	TESTQ R9, R9
	JZ    done

group:
	XORPS X0, X0
	XORQ  R10, R10

lanes:
	MOVSS  (AX)(R10*4), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (BX), X5
	SUBPS  X5, X4
	MULPS  X4, X4
	ADDPS  X4, X0
	ADDQ   $16, BX
	INCQ   R10
	CMPQ   R10, R8
	JLT    lanes
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	DECQ   R9
	JNZ    group

done:
	RET

// Lane kernels under the L2Sq contract (batch.go, "lane block"): lane i of
// a group is row i, so each of the four scalar accumulators s0..s3 becomes
// one register holding that accumulator for all four rows, and the scalar
// reduction ((s0+s1)+s2)+s3 is three lane-wise adds, no transpose. The d%4
// remainder is folded in after the reduction, one dimension at a time, as in
// the scalar kernel. Every packed operation takes the scalar step's operands
// in the scalar order, so each lane ends bit-identical to L2Sq(x, row). The
// kernels run two groups per pass (a lane block holds whole pairs): each
// broadcast of x[j] serves both, and their eight accumulator chains
// interleave.

// One dimension of LANES_PAIR: acc += (x[j] − row[j])² for the four rows of
// the group at BX (into a) and of the group at R13 (into b), where k selects
// x[j]'s lane of X14 and off the dimension's 16 bytes from R10.
#define LANE_DIM(k, off, a, b) \
	PSHUFD k, X14, X8;          \
	MOVAPS X8, X9;              \
	SUBPS  off(BX)(R10*1), X8;  \
	SUBPS  off(R13)(R10*1), X9; \
	MULPS  X8, X8;              \
	MULPS  X9, X9;              \
	ADDPS  X8, a;               \
	ADDPS  X9, b

// LANES_PAIR leaves the four distances of the group at BX in X0, those of
// the next group in X4, and advances BX past both. AX = x, R8 = 16·d, R11 =
// 16·(d&^3) (the byte lengths of a group and of its whole quads); clobbers
// R10, R12, R13, X1..X3, X5..X9 and X14.
#define LANES_PAIR(loop, sum, rem, end) \
	XORPS  X0, X0;            \
	XORPS  X1, X1;            \
	XORPS  X2, X2;            \
	XORPS  X3, X3;            \
	XORPS  X4, X4;            \
	XORPS  X5, X5;            \
	XORPS  X6, X6;            \
	XORPS  X7, X7;            \
	XORQ   R10, R10;          \
	MOVQ   AX, R12;           \
	LEAQ   (BX)(R8*1), R13;   \
	CMPQ   R10, R11;          \
	JGE    sum;               \
loop:                         \
	MOVUPS (R12), X14;        \
	LANE_DIM($0x00, 0, X0, X4);  \
	LANE_DIM($0x55, 16, X1, X5); \
	LANE_DIM($0xAA, 32, X2, X6); \
	LANE_DIM($0xFF, 48, X3, X7); \
	ADDQ   $16, R12;          \
	ADDQ   $64, R10;          \
	CMPQ   R10, R11;          \
	JLT    loop;              \
sum:                          \
	ADDPS  X1, X0;            \
	ADDPS  X2, X0;            \
	ADDPS  X3, X0;            \
	ADDPS  X5, X4;            \
	ADDPS  X6, X4;            \
	ADDPS  X7, X4;            \
rem:                          \
	CMPQ   R10, R8;           \
	JGE    end;               \
	MOVSS  (R12), X14;        \
	LANE_DIM($0x00, 0, X0, X4);  \
	ADDQ   $4, R12;           \
	ADDQ   $16, R10;          \
	JMP    rem;               \
end:                          \
	LEAQ   (R13)(R8*1), BX

// func l2sqLaneRowsSSE(x, block, out *float32, d, pairs int)
//
// DI = out, R9 = pairs left.
TEXT ·l2sqLaneRowsSSE(SB), NOSPLIT, $0-40
	MOVQ  x+0(FP), AX
	MOVQ  block+8(FP), BX
	MOVQ  out+16(FP), DI
	MOVQ  d+24(FP), R8
	MOVQ  pairs+32(FP), R9
	MOVQ  R8, R11
	ANDQ  $~3, R11
	SHLQ  $4, R8
	SHLQ  $4, R11
	TESTQ R9, R9
	JZ    done

pair:
	LANES_PAIR(dims, sum, rem, next)
	MOVUPS X0, (DI)
	MOVUPS X4, 16(DI)
	ADDQ   $32, DI
	DECQ   R9
	JNZ    pair

done:
	RET

// NEAREST_UPDATE folds one group's distances (in dist) into the per-lane
// first minima: X10 = best distance (from +Inf), X11 = its row (from 0),
// X12 = the group's rows, X13 = four 4s. A lane takes the distance only
// where it is strictly less (CMPPS lt is false on NaN): MINPS keeps the old
// value on ties and NaN, and the same mask selects the row.
#define NEAREST_UPDATE(dist) \
	MOVAPS dist, X8;     \
	CMPPS  X10, X8, $1;  \
	MINPS  X10, dist;    \
	MOVAPS dist, X10;    \
	MOVAPS X8, X9;       \
	ANDPS  X12, X9;      \
	ANDNPS X11, X8;      \
	ORPS   X9, X8;       \
	MOVAPS X8, X11;      \
	PADDL  X13, X12

// func nearestLaneSSE(x, block *float32, d, pairs int, best *float32, idx *int32)
//
// Per lane, the scalar scan's first-minimum rule over the lane's rows in
// ascending order. R9 = pairs left.
TEXT ·nearestLaneSSE(SB), NOSPLIT, $0-48
	MOVQ   x+0(FP), AX
	MOVQ   block+8(FP), BX
	MOVQ   d+16(FP), R8
	MOVQ   pairs+24(FP), R9
	MOVQ   R8, R11
	ANDQ   $~3, R11
	SHLQ   $4, R8
	SHLQ   $4, R11
	MOVQ   $0x7f800000, CX
	MOVQ   CX, X10
	PSHUFD $0x00, X10, X10
	PXOR   X11, X11
	MOVUPS laneRows<>(SB), X12
	MOVQ   $4, CX
	MOVQ   CX, X13
	PSHUFD $0x00, X13, X13
	TESTQ  R9, R9
	JZ     done

pair:
	LANES_PAIR(dims, sum, rem, next)
	NEAREST_UPDATE(X0)
	NEAREST_UPDATE(X4)
	DECQ   R9
	JNZ    pair

done:
	MOVQ   best+32(FP), DI
	MOVUPS X10, (DI)
	MOVQ   idx+40(FP), DI
	MOVUPS X11, (DI)
	RET

DATA laneRows<>+0(SB)/4, $0
DATA laneRows<>+4(SB)/4, $1
DATA laneRows<>+8(SB)/4, $2
DATA laneRows<>+12(SB)/4, $3
GLOBL laneRows<>(SB), RODATA|NOPTR, $16
