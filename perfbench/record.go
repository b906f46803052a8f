package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// recordTable prints the recorded.go entries for a range of seeds:
//
//	perfbench record fig10|fleet FROM TO
func recordTable(args []string, w io.Writer) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: perfbench record fig10|fleet FROM TO")
	}
	from, err1 := strconv.ParseInt(args[1], 10, 64)
	to, err2 := strconv.ParseInt(args[2], 10, 64)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("bad seed range %q %q", args[1], args[2])
	}
	for seed := from; seed <= to; seed++ {
		switch args[0] {
		case "fig10":
			res, _, _, _, err := fig10Once(seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\t%d: 0x%016x,\n", seed, fig10Fingerprint(res))
		case "fleet":
			fs, _, _, err := runFleetOnce(fleetDevices, seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\t%d: %s,\n", seed, strings.TrimPrefix(fmt.Sprintf("%#v", countsOf(fs)), "main."))
		default:
			return fmt.Errorf("unknown table %q", args[0])
		}
	}
	return nil
}
