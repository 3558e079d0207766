package temporal

// This file holds the relax kernel of the blocked backward sweep. The
// blocked sweep processes LaneWidth destinations per pass over the
// layers; blocking amortises the edge stream (loads, loop control)
// across lanes, so one (u, v) read feeds LaneWidth independent
// relaxations. The Go compiler does not unroll the short per-edge lane
// loop, so the kernel is written out lane by lane. Lanes are fully
// independent: a slot only ever compares and assigns its own lane's
// state, so the per-destination sequence of relaxations and commits is
// identical to the single-destination sweep's, and every product
// (trips, occupancies, distance segments) is bit-exact against it.

// LaneWidth is the number of destinations the blocked sweep relaxes per
// pass over the layers. A node's 8 packed int64 lanes fill exactly one
// 64-byte cache line; relaxLanes is unrolled for exactly this width.
// Block b covers destinations [b*LaneWidth, min((b+1)*LaneWidth, n));
// a blocked state slot maps to node slot/LaneWidth and lane
// slot%LaneWidth.
const LaneWidth = 8

// relaxLanes relaxes one layer's edge list over the 8-lane blocked
// state: for every link (u, v), v's standing state (arrival departing
// at the next layer) relaxes u — and u's relaxes v when the analysis
// is undirected — independently per lane. Slots whose candidate became
// active are appended to touched, which is returned. The body is
// manually unrolled over the lanes: the compiler does not unroll the
// short inner loop, and the whole point of blocking is straight-line
// work per edge.
func relaxLanes(nodeB, candB []int64, edges []int32, directed bool, touched []int32) []int32 {
	for j := 0; j+1 < len(edges); j += 2 {
		bu := 8 * int(edges[j])
		bv := 8 * int(edges[j+1])
		nu := nodeB[bu : bu+8 : bu+8]
		nv := nodeB[bv : bv+8 : bv+8]
		pu0, pu1, pu2, pu3 := nu[0], nu[1], nu[2], nu[3]
		pu4, pu5, pu6, pu7 := nu[4], nu[5], nu[6], nu[7]
		pv0, pv1, pv2, pv3 := nv[0], nv[1], nv[2], nv[3]
		pv4, pv5, pv6, pv7 := nv[4], nv[5], nv[6], nv[7]
		if p := pv0 + 1; p < pu0 {
			if cnd := candB[bu]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu))
				}
				candB[bu] = p
			}
		}
		if p := pv1 + 1; p < pu1 {
			if cnd := candB[bu+1]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+1))
				}
				candB[bu+1] = p
			}
		}
		if p := pv2 + 1; p < pu2 {
			if cnd := candB[bu+2]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+2))
				}
				candB[bu+2] = p
			}
		}
		if p := pv3 + 1; p < pu3 {
			if cnd := candB[bu+3]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+3))
				}
				candB[bu+3] = p
			}
		}
		if p := pv4 + 1; p < pu4 {
			if cnd := candB[bu+4]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+4))
				}
				candB[bu+4] = p
			}
		}
		if p := pv5 + 1; p < pu5 {
			if cnd := candB[bu+5]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+5))
				}
				candB[bu+5] = p
			}
		}
		if p := pv6 + 1; p < pu6 {
			if cnd := candB[bu+6]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+6))
				}
				candB[bu+6] = p
			}
		}
		if p := pv7 + 1; p < pu7 {
			if cnd := candB[bu+7]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bu+7))
				}
				candB[bu+7] = p
			}
		}
		if directed {
			continue
		}
		if p := pu0 + 1; p < pv0 {
			if cnd := candB[bv]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv))
				}
				candB[bv] = p
			}
		}
		if p := pu1 + 1; p < pv1 {
			if cnd := candB[bv+1]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+1))
				}
				candB[bv+1] = p
			}
		}
		if p := pu2 + 1; p < pv2 {
			if cnd := candB[bv+2]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+2))
				}
				candB[bv+2] = p
			}
		}
		if p := pu3 + 1; p < pv3 {
			if cnd := candB[bv+3]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+3))
				}
				candB[bv+3] = p
			}
		}
		if p := pu4 + 1; p < pv4 {
			if cnd := candB[bv+4]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+4))
				}
				candB[bv+4] = p
			}
		}
		if p := pu5 + 1; p < pv5 {
			if cnd := candB[bv+5]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+5))
				}
				candB[bv+5] = p
			}
		}
		if p := pu6 + 1; p < pv6 {
			if cnd := candB[bv+6]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+6))
				}
				candB[bv+6] = p
			}
		}
		if p := pu7 + 1; p < pv7 {
			if cnd := candB[bv+7]; p < cnd {
				if cnd == noCand {
					touched = append(touched, int32(bv+7))
				}
				candB[bv+7] = p
			}
		}
	}
	return touched
}
