package fault

// Count exposes entity id's local event counter to the tests.
func (p *Plane) Count(kind Kind, id int) uint64 { return p.count[kind][id] }

// WindowCount exposes the ring-wide delivery counter to the tests.
func (p *Plane) WindowCount() uint64 { return p.globalDeliv.Load() }
