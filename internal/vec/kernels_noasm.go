//go:build !amd64 || purego

package vec

func dot4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	return dot4Go(q, r0, r1, r2, r3)
}

func l2sq4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	return l2sq4Go(q, r0, r1, r2, r3)
}

func dotRows(q, rows, out []float32) { dotRowsGo(q, rows, out) }

func l2sqRows(q, rows, out []float32) { l2sqRowsGo(q, rows, out) }

func sqL2SqBatch(x, lo, step []float32, codes []byte, ids []int32, out []float32) {
	sqL2SqBatchGo(x, lo, step, codes, ids, out)
}

func l2sqLanes(x, block, out []float32) { l2sqLanesGo(x, block, out) }

func l2sqLaneRows(x, block, out []float32) { l2sqLaneRowsGo(x, block, out) }

func nearestLane(x, block []float32, k int) int { return nearestLaneGo(x, block, k) }
