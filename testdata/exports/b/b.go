// Command b references package a's live surface.
package main

import "fixture/a"

func main() { println(Use()) }

// Use is called from main.
func Use() int {
	var w a.Widget
	w.LiveMethod()
	cfg := a.Config{Live: 1}
	cfg.Assigned = 2
	return a.Live() + a.Resolve(cfg)
}
