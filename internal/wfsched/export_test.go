package wfsched

// EncodeSweep lets the external test package seed a sweep checkpoint,
// so a job it runs through the runners simulates only the sweep's tail.
var EncodeSweep = encodeSweep
