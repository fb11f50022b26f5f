package subject_test

import (
	"testing"

	"flowrel/cmd/flowrelvet/testdata/xtest/dep"
	"flowrel/cmd/flowrelvet/testdata/xtest/subject"
)

func TestUse(t *testing.T) { dep.Use(subject.T{}) }
