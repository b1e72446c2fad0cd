package a

import "testing"

func TestDeadFunc(t *testing.T) { DeadFunc() }
