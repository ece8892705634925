// Package geo provides the geographic primitives used throughout the
// reproduction: WGS84-style coordinates, great-circle distance, and the
// small amount of spherical trigonometry the simulators and the evaluation
// methodology need.
//
// Distances are computed with the haversine formula on a spherical Earth
// (radius 6371.0088 km, the IUGG mean). The paper's analyses only ever
// compare distances against coarse thresholds (40 km city range, 50/100 km
// proximity bounds), so spherical error (<0.6%) is irrelevant here.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the IUGG mean Earth radius in kilometres.
const EarthRadiusKm = 6371.0088

// Coordinate is a geographic point in decimal degrees.
// The zero value (0,0) is a valid point in the Gulf of Guinea; use IsZero
// only where (0,0) is reserved as "unset", as geolocation records do.
type Coordinate struct {
	Lat float64 // degrees north, [-90, 90]
	Lon float64 // degrees east, [-180, 180]
}

// IsZero reports whether c is the exact zero coordinate, used by records
// that encode "no coordinates" as (0,0).
func (c Coordinate) IsZero() bool { return c.Lat == 0 && c.Lon == 0 }

// Valid reports whether c lies within the valid latitude/longitude ranges.
func (c Coordinate) Valid() bool {
	return c.Lat >= -90 && c.Lat <= 90 && c.Lon >= -180 && c.Lon <= 180 &&
		!math.IsNaN(c.Lat) && !math.IsNaN(c.Lon)
}

// String formats the coordinate as "lat,lon" with 4 decimal places
// (roughly 11 m resolution), matching the precision geolocation databases
// typically publish.
func (c Coordinate) String() string {
	return fmt.Sprintf("%.4f,%.4f", c.Lat, c.Lon)
}

// DistanceKm returns the great-circle distance in kilometres between c and o.
func (c Coordinate) DistanceKm(o Coordinate) float64 {
	const degToRad = math.Pi / 180
	lat1 := c.Lat * degToRad
	lat2 := o.Lat * degToRad
	dLat := (o.Lat - c.Lat) * degToRad
	dLon := (o.Lon - c.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// WithinKm reports whether o is within km kilometres of c.
func (c Coordinate) WithinKm(o Coordinate, km float64) bool {
	return c.DistanceKm(o) <= km
}

// Offset returns the coordinate reached by travelling distanceKm from c on
// the initial bearing bearingDeg (degrees clockwise from north). It is used
// by the simulators to jitter router and probe positions around city
// centres, and by vendor builders to displace city coordinates.
func (c Coordinate) Offset(distanceKm, bearingDeg float64) Coordinate {
	const degToRad = math.Pi / 180
	const radToDeg = 180 / math.Pi

	ad := distanceKm / EarthRadiusKm // angular distance
	br := bearingDeg * degToRad
	lat1 := c.Lat * degToRad
	lon1 := c.Lon * degToRad

	sinLat2 := math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(br)
	lat2 := math.Asin(sinLat2)
	y := math.Sin(br) * math.Sin(ad) * math.Cos(lat1)
	x := math.Cos(ad) - math.Sin(lat1)*sinLat2
	lon2 := lon1 + math.Atan2(y, x)

	// Normalize longitude to [-180, 180).
	lonDeg := math.Mod(lon2*radToDeg+540, 360) - 180
	return Coordinate{Lat: lat2 * radToDeg, Lon: lonDeg}
}
