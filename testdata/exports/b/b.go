// Command b references package a's live surface.
package main

import "fixture/a"

func main() { println(Use()) }

// Use is called from main.
func Use() int {
	var w a.Widget
	w.LiveMethod()
	return a.Live()
}
