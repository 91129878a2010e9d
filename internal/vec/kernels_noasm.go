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

// adcRows is ADCRows's four chains in Go; a sub-space's 256 floats are
// indexed as an array, which needs no check on the code byte.
func adcRows(table []float32, codes []byte, m int, rows []int32, out []float32) {
	for i := 0; i < len(rows); i += 4 {
		c0 := codes[int(rows[i])*m:][:m]
		c1 := codes[int(rows[i+1])*m:][:m]
		c2 := codes[int(rows[i+2])*m:][:m]
		c3 := codes[int(rows[i+3])*m:][:m]
		var d0, d1, d2, d3 float32
		for s := range c0 {
			row := (*[256]float32)(table[s*256:])
			d0 += row[c0[s]]
			d1 += row[c1[s]]
			d2 += row[c2[s]]
			d3 += row[c3[s]]
		}
		out[i], out[i+1], out[i+2], out[i+3] = d0, d1, d2, d3
	}
}
