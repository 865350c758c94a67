package scheme

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Parse resolves a spec string against the registry. The grammar is
// sched[":"k]"+"manager["?"key"="value{","key"="value}]; a bare
// scheduler name implies the tail-drop manager and a bare manager name
// implies FIFO scheduling. Matching is case-insensitive, so the legacy
// display labels ("FIFO+thresholds", "WFQ", "FIFO+RED") parse to their
// registry entries.
func Parse(spec string) (*Scheme, error) {
	base := strings.TrimSpace(spec)
	if base == "" {
		return nil, fmt.Errorf("scheme: empty spec")
	}
	base, paramPart, hasParams := cut(base, "?")
	parts := strings.Split(strings.ToLower(base), "+")
	if len(parts) > 2 {
		return nil, fmt.Errorf("scheme %q: want scheduler+manager, got %d '+'-separated parts", spec, len(parts))
	}
	schedTok, mgrTok := parts[0], ""
	if len(parts) == 2 {
		mgrTok = parts[1]
	} else if _, isSched := schedulerByName[schedName(schedTok)]; !isSched {
		// A bare manager name means FIFO scheduling.
		if _, isMgr := managerByName[schedTok]; isMgr {
			schedTok, mgrTok = "fifo", schedTok
		}
	}
	if mgrTok == "" && len(parts) == 2 {
		return nil, fmt.Errorf("scheme %q: missing manager after '+' (use e.g. %q or %q)", spec, schedTok+"+threshold", schedTok+"+none")
	}
	if mgrTok == "" {
		mgrTok = "none"
	}

	name, arg, hasArg := cut(schedTok, ":")
	sd, ok := schedulerByName[name]
	if !ok {
		return nil, fmt.Errorf("scheme %q: unknown scheduler %q (known: %s)", spec, name, strings.Join(schedulerNames(), ", "))
	}
	k := 0
	if hasArg {
		if !sd.takesK {
			return nil, fmt.Errorf("scheme %q: scheduler %q takes no ':k' argument", spec, name)
		}
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("scheme %q: queue count %q must be a positive integer", spec, arg)
		}
		k = n
	}
	md, ok := managerByName[mgrTok]
	if !ok {
		return nil, fmt.Errorf("scheme %q: unknown buffer manager %q (known: %s)", spec, mgrTok, strings.Join(managerNames(), ", "))
	}
	s := &Scheme{sched: sd, mgr: md, k: k, params: params{}}
	if sd.combined != nil && !sd.allowedManagers[md.name] {
		return nil, fmt.Errorf("scheme %q: scheduler %q composes only with %s managers, not %q", spec, sd.name, sd.allowedManagerNames(), md.name)
	}
	if hasParams {
		if err := s.parseParams(spec, paramPart); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustParse is Parse for compile-time-constant specs; it panics on
// error.
func MustParse(spec string) *Scheme {
	s, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// schedName strips a ":k" argument for the bare-token scheduler check.
func schedName(tok string) string {
	name, _, _ := cut(tok, ":")
	return name
}

// cut is strings.Cut with the separator found flag last.
func cut(s, sep string) (before, after string, found bool) {
	if i := strings.Index(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}

// parseParams fills s.params from the "key=value,key=value" tail,
// validating every key against the combination's declared parameters
// and every value against its declared range.
func (s *Scheme) parseParams(spec, tail string) error {
	if strings.TrimSpace(tail) == "" {
		return fmt.Errorf("scheme %q: empty parameter list after '?'", spec)
	}
	defs := s.paramDefs()
	for _, kv := range strings.Split(tail, ",") {
		key, val, ok := cut(strings.TrimSpace(kv), "=")
		key = strings.ToLower(strings.TrimSpace(key))
		if !ok || key == "" {
			return fmt.Errorf("scheme %q: parameter %q is not key=value", spec, kv)
		}
		var def *ParamDef
		for i := range defs {
			if defs[i].Name == key {
				def = &defs[i]
				break
			}
		}
		if def == nil {
			return fmt.Errorf("scheme %q: unknown parameter %q (accepted: %s)", spec, key, paramNames(defs))
		}
		if _, dup := s.params[key]; dup {
			return fmt.Errorf("scheme %q: parameter %q given twice", spec, key)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return fmt.Errorf("scheme %q: parameter %s=%q is not a number", spec, key, val)
		}
		if err := def.check(f); err != nil {
			return fmt.Errorf("scheme %q: %w", spec, err)
		}
		s.params[key] = f
	}
	return nil
}

// paramNames formats the accepted parameter list for error messages.
func paramNames(defs []ParamDef) string {
	if len(defs) == 0 {
		return "none"
	}
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return strings.Join(names, ", ")
}

// paramSuffix renders the explicitly-set, non-default parameters as a
// sorted "?key=value,..." tail ("" when everything is default). Both
// the canonical spec and the display label share it, so equal behaviour
// means equal strings.
func (s *Scheme) paramSuffix() string {
	defaults := map[string]float64{}
	for _, d := range s.paramDefs() {
		defaults[d.Name] = d.Default
	}
	keys := make([]string, 0, len(s.params))
	for k, v := range s.params {
		if v != defaults[k] {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.FormatFloat(s.params[k], 'g', -1, 64)
	}
	return "?" + strings.Join(parts, ",")
}

// Spec returns the canonical spec string: lower-case registry names,
// an explicit queue count only when one was given, and only the
// parameters that differ from their defaults, sorted. Parse(s.Spec())
// yields an equivalent Scheme.
func (s *Scheme) Spec() string {
	var b strings.Builder
	b.WriteString(s.sched.name)
	if s.k > 0 {
		b.WriteString(":")
		b.WriteString(strconv.Itoa(s.k))
	}
	b.WriteString("+")
	b.WriteString(s.mgr.name)
	b.WriteString(s.paramSuffix())
	return b.String()
}

// String returns the display label used in result tables and figure
// legends. Legacy combinations keep their historical names ("FIFO",
// "WFQ+thresholds", "hybrid+sharing", "FIFO+RED"); non-default
// parameters are appended as a "?key=value" tail.
func (s *Scheme) String() string {
	var b strings.Builder
	b.WriteString(s.sched.display)
	if s.k > 0 {
		b.WriteString(":")
		b.WriteString(strconv.Itoa(s.k))
	}
	if s.mgr.display != "" {
		b.WriteString("+")
		b.WriteString(s.mgr.display)
	}
	b.WriteString(s.paramSuffix())
	return b.String()
}

// schedulerNames returns the registered scheduler tokens in catalogue
// order.
func schedulerNames() []string {
	names := make([]string, len(schedulers))
	for i, d := range schedulers {
		names[i] = d.name
	}
	return names
}

// managerNames returns the registered manager tokens in catalogue
// order (aliases excluded).
func managerNames() []string {
	names := make([]string, len(managers))
	for i, d := range managers {
		names[i] = d.name
	}
	return names
}

// Specs enumerates the canonical spec of every valid scheduler×manager
// combination, in catalogue order — the "-list-schemes" inventory.
func Specs() []string {
	var out []string
	for _, sd := range schedulers {
		for _, md := range managers {
			if sd.combined != nil && !sd.allowedManagers[md.name] {
				continue
			}
			out = append(out, (&Scheme{sched: sd, mgr: md, params: params{}}).Spec())
		}
	}
	return out
}
