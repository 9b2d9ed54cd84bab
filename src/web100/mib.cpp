#include "web100/mib.hpp"

#include <cstddef>
#include <ostream>

namespace rss::web100 {

FlatMib flatten(const Mib& m) {
  const std::array<double, kVariableNames.size()> values{
      static_cast<double>(m.PktsOut),
      static_cast<double>(m.DataBytesOut),
      static_cast<double>(m.PktsRetrans),
      static_cast<double>(m.BytesRetrans),
      static_cast<double>(m.ThruBytesAcked),
      static_cast<double>(m.AcksIn),
      static_cast<double>(m.DupAcksIn),
      static_cast<double>(m.SendStall),
      static_cast<double>(m.CongestionSignals),
      static_cast<double>(m.Timeouts),
      static_cast<double>(m.FastRetran),
      static_cast<double>(m.OtherReductions),
      m.CurCwnd,
      m.MaxCwnd,
      m.CurSsthresh,
      static_cast<double>(m.CurRwinRcvd),
      static_cast<double>(m.SlowStartSegments),
      static_cast<double>(m.CongAvoidSegments),
      static_cast<double>(m.SmoothedRTT.milliseconds_count()),
      static_cast<double>(m.CurRTO.milliseconds_count()),
      static_cast<double>(m.MinRTT.milliseconds_count()),
  };
  FlatMib flat;
  for (std::size_t i = 0; i < flat.size(); ++i) flat[i] = {kVariableNames[i], values[i]};
  return flat;
}

std::ostream& operator<<(std::ostream& os, const Mib& mib) {
  for (const auto& [name, value] : flatten(mib)) os << name << "=" << value << " ";
  return os;
}

}  // namespace rss::web100
