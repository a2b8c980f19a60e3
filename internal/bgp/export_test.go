package bgp

// IndexWalks is the number of prefix index walks s makes per address: one
// per distinct index among its FIBs.
func IndexWalks(s *FIBSet) int { return len(s.groups) }
