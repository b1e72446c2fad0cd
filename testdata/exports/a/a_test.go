package a

import "testing"

func TestDeadFunc(t *testing.T) { DeadFunc() }

func TestDeadField(t *testing.T) { Resolve(Config{Dead: 2}) }
