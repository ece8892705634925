// Package hints reimplements the DRoP approach of Huffaker et al. that the
// paper uses to build its DNS-based ground truth (§2.3.1): a dictionary
// mapping location strings (airport codes, CLLI-style site codes, city
// names) to coordinates, plus domain-specific rules that say where in a
// given operator's hostnames the location token sits.
//
// The same dictionary drives both directions: internal/rdns uses it to
// *encode* hints into synthesized hostnames, and this package's rules
// *decode* them, so the reproduction's DNS ground truth is built exactly
// the way the paper's was — by parsing names, not by peeking at the world.
package hints

import (
	"strings"

	"routergeo/internal/gazetteer"
)

// Dictionary maps location tokens to cities.
type Dictionary struct {
	byToken map[string]gazetteer.City
	iata    []string // by gazetteer.CityID: lowercase IATA, "" if none
	site    []string // by gazetteer.CityID: CLLI-style site code, "" if none
	name    []string // by gazetteer.CityID: collapsed city name
}

// NewDictionary derives a dictionary from the gazetteer. Token classes, in
// priority order when codes collide: IATA airport codes, generated
// CLLI-style site codes, and collapsed city names. Ambiguous city-name
// tokens (several cities sharing a name) are dropped, as DRoP does when a
// hint cannot be resolved unambiguously.
func NewDictionary(g *gazetteer.Gazetteer) *Dictionary {
	d := &Dictionary{
		byToken: make(map[string]gazetteer.City),
		iata:    make([]string, gazetteer.NumCities()+1),
		site:    make([]string, gazetteer.NumCities()+1),
		name:    make([]string, gazetteer.NumCities()+1),
	}
	cities := g.Cities()

	// Pass 1: IATA codes, globally unique by construction.
	for _, c := range cities {
		if c.IATA == "" {
			continue
		}
		tok := strings.ToLower(c.IATA)
		d.byToken[tok] = c
		d.iata[c.ID] = tok
	}

	// Pass 2: CLLI-style site codes ("dllsus" for Dallas/US), skipping any
	// candidate that collides with an existing token.
	for _, c := range cities {
		code := siteCode(c)
		if _, taken := d.byToken[code]; taken {
			// Degrade deterministically: replace the last letter with a
			// counter until free. Collisions are rare; give up after 9.
			base := code[:len(code)-1]
			found := false
			for i := '1'; i <= '9'; i++ {
				alt := base + string(i)
				if _, taken := d.byToken[alt]; !taken {
					code, found = alt, true
					break
				}
			}
			if !found {
				continue
			}
		}
		d.byToken[code] = c
		d.site[c.ID] = code
	}

	// Pass 3: collapsed city names; ambiguous ones are dropped entirely.
	nameCount := map[string]int{}
	for _, c := range cities {
		d.name[c.ID] = collapseName(c.Name)
		nameCount[d.name[c.ID]]++
	}
	for _, c := range cities {
		tok := d.name[c.ID]
		if nameCount[tok] > 1 {
			continue
		}
		if _, taken := d.byToken[tok]; !taken {
			d.byToken[tok] = c
		}
	}
	return d
}

// Lookup resolves a location token (any class, case-insensitive).
func (d *Dictionary) Lookup(token string) (gazetteer.City, bool) {
	c, ok := d.byToken[strings.ToLower(token)]
	return c, ok
}

// IATA returns the lowercase airport token for a city, or "".
func (d *Dictionary) IATA(c gazetteer.City) string { return d.iata[c.ID] }

// SiteCode returns the CLLI-style token for a city, or "" when the city
// could not be assigned a collision-free code.
func (d *Dictionary) SiteCode(c gazetteer.City) string { return d.site[c.ID] }

// Name returns a city's collapsed name, the token the city-name rules
// (belwue, seabone) decode: the name lowercased with every non-letter
// stripped. It is returned even when the name is ambiguous and so does
// not resolve.
func (d *Dictionary) Name(c gazetteer.City) string { return d.name[c.ID] }

// BestToken returns the preferred token for embedding in a hostname:
// IATA if the city has one, else the site code, else the collapsed name.
// ok is false if no token class resolves back to this city.
func (d *Dictionary) BestToken(c gazetteer.City) (string, bool) {
	if t := d.IATA(c); t != "" {
		return t, true
	}
	if t := d.SiteCode(c); t != "" {
		return t, true
	}
	t := d.name[c.ID]
	if got, ok := d.byToken[t]; ok && got.ID == c.ID {
		return t, true
	}
	return "", false
}

// Size returns the number of distinct tokens.
func (d *Dictionary) Size() int { return len(d.byToken) }

// siteCode builds a deterministic CLLI-flavoured code: up to four
// consonant-skeleton letters of the name plus the lowercase country code,
// e.g. Dallas/US -> "dllsus".
func siteCode(c gazetteer.City) string {
	name := collapseName(c.Name)
	skeleton := make([]byte, 0, 4)
	for i := 0; i < len(name) && len(skeleton) < 4; i++ {
		ch := name[i]
		if i > 0 && (ch == 'a' || ch == 'e' || ch == 'i' || ch == 'o' || ch == 'u') {
			continue
		}
		skeleton = append(skeleton, ch)
	}
	// Pad short skeletons with the remaining letters (vowels included).
	for i := 1; i < len(name) && len(skeleton) < 4; i++ {
		skeleton = append(skeleton, name[i])
	}
	for len(skeleton) < 4 {
		skeleton = append(skeleton, 'x')
	}
	return string(skeleton) + strings.ToLower(c.Country)
}

// collapseName lowercases a city name and strips every non-letter.
func collapseName(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' {
			b.WriteRune(r)
		}
	}
	return b.String()
}
