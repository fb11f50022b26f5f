// Package dep imports the subject, so the subject's external test sees
// the subject through it too.
package dep

import "flowrel/cmd/flowrelvet/testdata/xtest/subject"

// Use accepts the subject's type.
func Use(subject.T) {}
