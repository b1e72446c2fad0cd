package main

import (
	"testing"

	"fixture/a"
)

func TestOracle(t *testing.T) {
	a.Oracle()
	if Use() == 0 {
		t.Fatal("Use")
	}
}
