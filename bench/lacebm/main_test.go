package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary double as the child process, as the
// lacebm binary does, so tests can start real serve and batch children.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}
