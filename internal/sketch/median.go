package sketch

// Branchless small-array sorting for the median hot path. medianOf
// historically ran an insertion sort, whose data-dependent branches
// mispredict ~half the time on random counter values and dominated
// the median-family QueryBatch profile (~45% of Count-Sketch query
// time). The fixed-size Batcher odd-even merge networks below sort
// through compare-exchanges compiled to branchless float min/max, so
// the depths that matter in practice (4..16 rows) pay no mispredicts.
// The networks are generated mechanically and verified in
// median_test.go against the 0-1 principle, and a sorted array's
// median does not depend on which correct sort produced it, so
// medianOf's answers are unchanged.

// cswap orders the pair (*a, *b) ascending without branching.
func cswap(a, b *float64) {
	x, y := *a, *b
	*a, *b = min(x, y), max(x, y)
}

// maxNetwork is the longest length sortSmall has a network for. A
// network's every output depends on every input and min/max propagate
// NaN, so one NaN turns the median NaN; insertion sort beyond this
// length leaves a NaN in place and sorts around it instead.
const maxNetwork = 16

// sortSmall fully sorts b when a fixed network exists for its length
// and reports whether it did.
func sortSmall(b []float64) bool {
	switch len(b) {
	case 4:
		sortNet4(b)
	case 5:
		sortNet5(b)
	case 6:
		sortNet6(b)
	case 7:
		sortNet7(b)
	case 8:
		sortNet8(b)
	case 9:
		sortNet9(b)
	case 10:
		sortNet10(b)
	case 11:
		sortNet11(b)
	case 12:
		sortNet12(b)
	case 13:
		sortNet13(b)
	case 14:
		sortNet14(b)
	case 15:
		sortNet15(b)
	case 16:
		sortNet16(b)
	default:
		return false
	}
	return true
}

// sortNet4: 5 comparators.
func sortNet4(b []float64) {
	_ = b[3]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[1], &b[2])
}

// sortNet5: 9 comparators.
func sortNet5(b []float64) {
	_ = b[4]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[1], &b[2])
	cswap(&b[0], &b[4])
	cswap(&b[2], &b[4])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
}

// sortNet6: 12 comparators.
func sortNet6(b []float64) {
	_ = b[5]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[4], &b[5])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[1], &b[2])
	cswap(&b[0], &b[4])
	cswap(&b[1], &b[5])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
}

// sortNet7: 16 comparators.
func sortNet7(b []float64) {
	_ = b[6]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[4], &b[5])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[4], &b[6])
	cswap(&b[1], &b[2])
	cswap(&b[5], &b[6])
	cswap(&b[0], &b[4])
	cswap(&b[1], &b[5])
	cswap(&b[2], &b[6])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
}

// sortNet8: 19 comparators.
func sortNet8(b []float64) {
	_ = b[7]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[4], &b[5])
	cswap(&b[6], &b[7])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[4], &b[6])
	cswap(&b[5], &b[7])
	cswap(&b[1], &b[2])
	cswap(&b[5], &b[6])
	cswap(&b[0], &b[4])
	cswap(&b[1], &b[5])
	cswap(&b[2], &b[6])
	cswap(&b[3], &b[7])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
}

// sortNet9: 28 comparators.
func sortNet9(b []float64) {
	_ = b[8]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[4], &b[5])
	cswap(&b[6], &b[7])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[4], &b[6])
	cswap(&b[5], &b[7])
	cswap(&b[1], &b[2])
	cswap(&b[5], &b[6])
	cswap(&b[0], &b[4])
	cswap(&b[1], &b[5])
	cswap(&b[2], &b[6])
	cswap(&b[3], &b[7])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[0], &b[8])
	cswap(&b[4], &b[8])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[6], &b[8])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[7], &b[8])
}

// sortNet10: 32 comparators.
func sortNet10(b []float64) {
	_ = b[9]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[4], &b[5])
	cswap(&b[6], &b[7])
	cswap(&b[8], &b[9])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[4], &b[6])
	cswap(&b[5], &b[7])
	cswap(&b[1], &b[2])
	cswap(&b[5], &b[6])
	cswap(&b[0], &b[4])
	cswap(&b[1], &b[5])
	cswap(&b[2], &b[6])
	cswap(&b[3], &b[7])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[0], &b[8])
	cswap(&b[1], &b[9])
	cswap(&b[4], &b[8])
	cswap(&b[5], &b[9])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[6], &b[8])
	cswap(&b[7], &b[9])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[7], &b[8])
}

// sortNet11: 38 comparators.
func sortNet11(b []float64) {
	_ = b[10]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[4], &b[5])
	cswap(&b[6], &b[7])
	cswap(&b[8], &b[9])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[4], &b[6])
	cswap(&b[5], &b[7])
	cswap(&b[8], &b[10])
	cswap(&b[1], &b[2])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[0], &b[4])
	cswap(&b[1], &b[5])
	cswap(&b[2], &b[6])
	cswap(&b[3], &b[7])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[0], &b[8])
	cswap(&b[1], &b[9])
	cswap(&b[2], &b[10])
	cswap(&b[4], &b[8])
	cswap(&b[5], &b[9])
	cswap(&b[6], &b[10])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[6], &b[8])
	cswap(&b[7], &b[9])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[7], &b[8])
	cswap(&b[9], &b[10])
}

// sortNet12: 42 comparators.
func sortNet12(b []float64) {
	_ = b[11]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[4], &b[5])
	cswap(&b[6], &b[7])
	cswap(&b[8], &b[9])
	cswap(&b[10], &b[11])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[4], &b[6])
	cswap(&b[5], &b[7])
	cswap(&b[8], &b[10])
	cswap(&b[9], &b[11])
	cswap(&b[1], &b[2])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[0], &b[4])
	cswap(&b[1], &b[5])
	cswap(&b[2], &b[6])
	cswap(&b[3], &b[7])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[0], &b[8])
	cswap(&b[1], &b[9])
	cswap(&b[2], &b[10])
	cswap(&b[3], &b[11])
	cswap(&b[4], &b[8])
	cswap(&b[5], &b[9])
	cswap(&b[6], &b[10])
	cswap(&b[7], &b[11])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[6], &b[8])
	cswap(&b[7], &b[9])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[7], &b[8])
	cswap(&b[9], &b[10])
}

// sortNet13: 48 comparators.
func sortNet13(b []float64) {
	_ = b[12]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[4], &b[5])
	cswap(&b[6], &b[7])
	cswap(&b[8], &b[9])
	cswap(&b[10], &b[11])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[4], &b[6])
	cswap(&b[5], &b[7])
	cswap(&b[8], &b[10])
	cswap(&b[9], &b[11])
	cswap(&b[1], &b[2])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[0], &b[4])
	cswap(&b[1], &b[5])
	cswap(&b[2], &b[6])
	cswap(&b[3], &b[7])
	cswap(&b[8], &b[12])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[10], &b[12])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[11], &b[12])
	cswap(&b[0], &b[8])
	cswap(&b[1], &b[9])
	cswap(&b[2], &b[10])
	cswap(&b[3], &b[11])
	cswap(&b[4], &b[12])
	cswap(&b[4], &b[8])
	cswap(&b[5], &b[9])
	cswap(&b[6], &b[10])
	cswap(&b[7], &b[11])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[6], &b[8])
	cswap(&b[7], &b[9])
	cswap(&b[10], &b[12])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[7], &b[8])
	cswap(&b[9], &b[10])
	cswap(&b[11], &b[12])
}

// sortNet14: 53 comparators.
func sortNet14(b []float64) {
	_ = b[13]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[4], &b[5])
	cswap(&b[6], &b[7])
	cswap(&b[8], &b[9])
	cswap(&b[10], &b[11])
	cswap(&b[12], &b[13])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[4], &b[6])
	cswap(&b[5], &b[7])
	cswap(&b[8], &b[10])
	cswap(&b[9], &b[11])
	cswap(&b[1], &b[2])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[0], &b[4])
	cswap(&b[1], &b[5])
	cswap(&b[2], &b[6])
	cswap(&b[3], &b[7])
	cswap(&b[8], &b[12])
	cswap(&b[9], &b[13])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[10], &b[12])
	cswap(&b[11], &b[13])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[11], &b[12])
	cswap(&b[0], &b[8])
	cswap(&b[1], &b[9])
	cswap(&b[2], &b[10])
	cswap(&b[3], &b[11])
	cswap(&b[4], &b[12])
	cswap(&b[5], &b[13])
	cswap(&b[4], &b[8])
	cswap(&b[5], &b[9])
	cswap(&b[6], &b[10])
	cswap(&b[7], &b[11])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[6], &b[8])
	cswap(&b[7], &b[9])
	cswap(&b[10], &b[12])
	cswap(&b[11], &b[13])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[7], &b[8])
	cswap(&b[9], &b[10])
	cswap(&b[11], &b[12])
}

// sortNet15: 59 comparators.
func sortNet15(b []float64) {
	_ = b[14]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[4], &b[5])
	cswap(&b[6], &b[7])
	cswap(&b[8], &b[9])
	cswap(&b[10], &b[11])
	cswap(&b[12], &b[13])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[4], &b[6])
	cswap(&b[5], &b[7])
	cswap(&b[8], &b[10])
	cswap(&b[9], &b[11])
	cswap(&b[12], &b[14])
	cswap(&b[1], &b[2])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[13], &b[14])
	cswap(&b[0], &b[4])
	cswap(&b[1], &b[5])
	cswap(&b[2], &b[6])
	cswap(&b[3], &b[7])
	cswap(&b[8], &b[12])
	cswap(&b[9], &b[13])
	cswap(&b[10], &b[14])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[10], &b[12])
	cswap(&b[11], &b[13])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[11], &b[12])
	cswap(&b[13], &b[14])
	cswap(&b[0], &b[8])
	cswap(&b[1], &b[9])
	cswap(&b[2], &b[10])
	cswap(&b[3], &b[11])
	cswap(&b[4], &b[12])
	cswap(&b[5], &b[13])
	cswap(&b[6], &b[14])
	cswap(&b[4], &b[8])
	cswap(&b[5], &b[9])
	cswap(&b[6], &b[10])
	cswap(&b[7], &b[11])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[6], &b[8])
	cswap(&b[7], &b[9])
	cswap(&b[10], &b[12])
	cswap(&b[11], &b[13])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[7], &b[8])
	cswap(&b[9], &b[10])
	cswap(&b[11], &b[12])
	cswap(&b[13], &b[14])
}

// sortNet16: 63 comparators.
func sortNet16(b []float64) {
	_ = b[15]
	cswap(&b[0], &b[1])
	cswap(&b[2], &b[3])
	cswap(&b[4], &b[5])
	cswap(&b[6], &b[7])
	cswap(&b[8], &b[9])
	cswap(&b[10], &b[11])
	cswap(&b[12], &b[13])
	cswap(&b[14], &b[15])
	cswap(&b[0], &b[2])
	cswap(&b[1], &b[3])
	cswap(&b[4], &b[6])
	cswap(&b[5], &b[7])
	cswap(&b[8], &b[10])
	cswap(&b[9], &b[11])
	cswap(&b[12], &b[14])
	cswap(&b[13], &b[15])
	cswap(&b[1], &b[2])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[13], &b[14])
	cswap(&b[0], &b[4])
	cswap(&b[1], &b[5])
	cswap(&b[2], &b[6])
	cswap(&b[3], &b[7])
	cswap(&b[8], &b[12])
	cswap(&b[9], &b[13])
	cswap(&b[10], &b[14])
	cswap(&b[11], &b[15])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[10], &b[12])
	cswap(&b[11], &b[13])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[9], &b[10])
	cswap(&b[11], &b[12])
	cswap(&b[13], &b[14])
	cswap(&b[0], &b[8])
	cswap(&b[1], &b[9])
	cswap(&b[2], &b[10])
	cswap(&b[3], &b[11])
	cswap(&b[4], &b[12])
	cswap(&b[5], &b[13])
	cswap(&b[6], &b[14])
	cswap(&b[7], &b[15])
	cswap(&b[4], &b[8])
	cswap(&b[5], &b[9])
	cswap(&b[6], &b[10])
	cswap(&b[7], &b[11])
	cswap(&b[2], &b[4])
	cswap(&b[3], &b[5])
	cswap(&b[6], &b[8])
	cswap(&b[7], &b[9])
	cswap(&b[10], &b[12])
	cswap(&b[11], &b[13])
	cswap(&b[1], &b[2])
	cswap(&b[3], &b[4])
	cswap(&b[5], &b[6])
	cswap(&b[7], &b[8])
	cswap(&b[9], &b[10])
	cswap(&b[11], &b[12])
	cswap(&b[13], &b[14])
}
