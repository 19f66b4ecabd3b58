package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel kill the child if this process dies
// first, so an interrupted run never leaves a server behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
