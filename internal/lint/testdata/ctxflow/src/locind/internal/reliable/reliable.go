// Package reliable is the package-allow showcase: one //lint:package-allow
// suppresses every ctxflow finding in the package with one stated reason.
//
//lint:package-allow ctxflow fixture retry loops are bounded by attempt count, not deadline
package reliable

import "net"

// Retry would be a ctxflow finding (net.Dial, no context) without the
// package-scope allow above.
func Retry(addr string) error {
	var lastErr error
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		return c.Close()
	}
	return lastErr
}
