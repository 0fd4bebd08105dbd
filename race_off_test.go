//go:build !race

package endbox

const raceEnabled = false
