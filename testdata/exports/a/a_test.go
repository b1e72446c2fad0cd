package a

import "testing"

func TestDeadFunc(t *testing.T) { DeadFunc() }

func TestDeadField(t *testing.T) { Resolve(Config{Dead: 2}) }

func TestUnreadField(t *testing.T) { _ = Config{}.Unread }
