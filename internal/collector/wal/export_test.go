package wal

// The log's file names, for the tests outside the package that recover a
// store from a log through the collector.
var SnapName = snapName

const QuarSuffix = quarSuffix
