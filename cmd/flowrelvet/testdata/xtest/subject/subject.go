// Package subject is the loader fixture for an external test package
// that imports both its subject and a package depending on it.
package subject

// T crosses from the subject through dep into the external test.
type T struct{}
