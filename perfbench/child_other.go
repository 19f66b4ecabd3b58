//go:build !linux

package main

import "os/exec"

// dieWithParent has no portable equivalent outside Linux; the deferred
// stop in runServe remains the only cleanup there.
func dieWithParent(*exec.Cmd) {}
