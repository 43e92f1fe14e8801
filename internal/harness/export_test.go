package harness

// ProfInstance exposes vmInstance to the external test package.
var ProfInstance = vmInstance
