package stats

// ShapeMemoCap exposes the shape memo's bound to the external tests.
const ShapeMemoCap = shapeMemoCap

// ShapeMemoLen reports how many shapes s's memo holds.
func ShapeMemoLen(s *Stats) int {
	s.shapeMu.Lock()
	defer s.shapeMu.Unlock()
	return len(s.shapes)
}
