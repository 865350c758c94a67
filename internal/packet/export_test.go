package packet

// PoisonReleased makes every Pool poison the packets released to it
// (Flow, Seq and Size set to values no scheme accepts) until the
// returned function is called. It exists only for tests: a component
// that touches a packet after giving it up then fails instead of
// quietly reading the packet's next life.
func PoisonReleased() (restore func()) {
	poisonOnRelease = true
	return func() { poisonOnRelease = false }
}
