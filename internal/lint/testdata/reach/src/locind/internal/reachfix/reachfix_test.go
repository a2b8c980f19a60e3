package reachfix

import "testing"

func init() { onlyTests() }

func TestOnlyTests(t *testing.T) { onlyTests() }
