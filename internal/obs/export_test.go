package obs

// Test-only exports for the external obs_test package, which can
// import the simulator to record real traces.
var (
	SampleEvents   = sampleEvents
	JSONLSeedLines = jsonlSeedLines
)
