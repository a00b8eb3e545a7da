package cgcast

// FramesForTest reports how many frames were ever allocated and how many
// sit in the free list: the difference is the frames live. It lets the
// chaos-driven lifetime test live outside the package (importing
// internal/chaos here would close an import cycle through the tracker).
func (s *Service) FramesForTest() (made, free int) { return s.made, len(s.free) }

// EnvelopesForTest is FramesForTest for client envelopes.
func (s *Service) EnvelopesForTest() (made, free int) { return s.envsMade, len(s.envs) }
