package server

import "repro/pkg/api"

// countCert records a served certificate — built by the rules in
// internal/bounds — on the metrics registry and returns it for the
// response.
func (s *Server) countCert(c api.Certificate) *api.Certificate {
	s.m.certTotal.Add(1)
	if c.Optimal {
		s.m.certOptimal.Add(1)
	}
	return &c
}
