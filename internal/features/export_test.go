package features

// LegacySelect exposes the serial oracle to the external benchmark package.
var LegacySelect = legacySelect
