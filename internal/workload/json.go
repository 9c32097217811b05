package workload

import (
	"encoding/json"
	"fmt"
	"io"
)

// ParseConfig decodes a benchmark configuration from JSON and validates it.
// Unknown fields are rejected so typos in hand-written configuration files
// fail loudly. The field names match the Config struct, e.g.:
//
//	{
//	  "Name": "mybench", "Seed": 7,
//	  "Regions": 16, "BlocksPerRegion": 12,
//	  "BlockSize": {"Min": 4, "Max": 9},
//	  "LoopTrip": {"Min": 8, "Max": 32},
//	  "RegionTheta": 0.8,
//	  "LoadFrac": 0.25, "StoreFrac": 0.1,
//	  "ChainProb": 0.5,
//	  "TakenBias": 0.95,
//	  "DataFootprint": 262144, "StrideFrac": 0.3, "Locality": 1.2
//	}
func ParseConfig(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("workload: parsing config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
