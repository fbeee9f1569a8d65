package geom

// Sets is a disjoint-set forest over the integers 0 to len-1: entry i is
// i's parent, and a set's root is always its smallest member. Every
// parent precedes its child, so one ascending pass can number the sets in
// the order of their smallest members. The zero value holds no elements.
type Sets []int

// Reset makes s the singletons 0 to n-1, reusing its storage when it is
// large enough.
func (s *Sets) Reset(n int) {
	if cap(*s) < n {
		*s = make(Sets, n)
	}
	*s = (*s)[:n]
	for i := range *s {
		(*s)[i] = i
	}
}

// Find returns the root of i's set, halving the path to it.
func (s Sets) Find(i int) int {
	for s[i] != i {
		s[i] = s[s[i]]
		i = s[i]
	}
	return i
}

// Join merges the sets of a and b under the smaller root and reports
// whether they were separate sets.
func (s Sets) Join(a, b int) bool {
	ra, rb := s.Find(a), s.Find(b)
	if ra == rb {
		return false
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	s[rb] = ra
	return true
}

// JoinTouching joins in s the indices of the rectangles that share an
// edge of positive length, and returns the number of joins that merged
// two sets. The rectangles come in band order, as Region.Rects lists them
// and the tiling clips them: runs of equal Y0 and Y1 that ascend in y,
// each run ascending in x without touching. So only rectangles of touching
// runs can meet, and each run is matched to the run below it with one
// merge of their x-ordered lists. s must hold at least len(rects) entries.
func JoinTouching(s Sets, rects []Rect) int {
	joins := 0
	plo, phi := 0, 0 // the run below: rects[plo:phi]
	for lo := 0; lo < len(rects); {
		hi := lo + 1
		for hi < len(rects) && rects[hi].Y0 == rects[lo].Y0 {
			hi++
		}
		if phi > 0 && rects[plo].Y1 == rects[lo].Y0 {
			k := lo
			for i := plo; i < phi; i++ {
				for k < hi && rects[k].X1 <= rects[i].X0 {
					k++
				}
				for m := k; m < hi && rects[m].X0 < rects[i].X1; m++ {
					if s.Join(i, m) {
						joins++
					}
				}
			}
		}
		plo, phi, lo = lo, hi, hi
	}
	return joins
}
