// Command audit checks a signature with stdlib's cofactorless rule.
package main

import (
	"crypto/ed25519"
	"fmt"
)

func main() {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return
	}
	msg := []byte("m")
	fmt.Println(ed25519.Verify(pub, msg, ed25519.Sign(priv, msg))) // want `crypto/ed25519.Verify referenced from ./examples/audit`
}
