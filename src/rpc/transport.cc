#include "rpc/transport.h"

#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/obs.h"

namespace skalla {
namespace rpc {

namespace {

// Every exchange encodes to wire bytes and decodes back, so the
// in-process path validates magic/version/checksum exactly like a
// socket peer would.
class InProcessConnection : public Connection {
 public:
  explicit InProcessConnection(SiteService* service) : service_(service) {}

  Result<Frame> Call(MessageType type,
                     const std::vector<uint8_t>& payload) override {
    SKALLA_OBS_ONLY(Stopwatch frame_watch);
    std::vector<uint8_t> request_wire = EncodeFrame(type, payload);
    SKALLA_HISTOGRAM_RECORD("skalla.rpc.frame_us",
                            frame_watch.ElapsedSeconds() * 1e6);
    wire_bytes_ += request_wire.size();
    SKALLA_COUNTER_ADD("skalla.rpc.bytes.sent", request_wire.size());
    SKALLA_ASSIGN_OR_RETURN(Frame request, DecodeFrame(request_wire));
    SKALLA_ASSIGN_OR_RETURN(Frame response, service_->Handle(request));
    SKALLA_OBS_ONLY(frame_watch.Reset());
    std::vector<uint8_t> response_wire =
        EncodeFrame(response.type, response.payload);
    Result<Frame> decoded = DecodeFrame(response_wire);
    SKALLA_HISTOGRAM_RECORD("skalla.rpc.frame_us",
                            frame_watch.ElapsedSeconds() * 1e6);
    wire_bytes_ += response_wire.size();
    SKALLA_COUNTER_ADD("skalla.rpc.bytes.recv", response_wire.size());
    return decoded;
  }

  uint64_t wire_bytes() const override { return wire_bytes_; }

 private:
  SiteService* service_;
  uint64_t wire_bytes_ = 0;
};

}  // namespace

InProcessTransport::InProcessTransport(std::vector<Site> sites,
                                       NetworkConfig network)
    : network_(network) {
  services_.reserve(sites.size());
  for (Site& site : sites) {
    services_.push_back(
        std::make_unique<SiteService>(std::move(site), /*ship_spans=*/false));
  }
}

Result<std::unique_ptr<Connection>> InProcessTransport::Connect(
    size_t site_index) {
  if (site_index >= services_.size()) {
    return Status::InvalidArgument(
        StrCat("no site ", site_index, " (transport has ", services_.size(),
               " sites)"));
  }
  return std::unique_ptr<Connection>(
      std::make_unique<InProcessConnection>(services_[site_index].get()));
}

}  // namespace rpc
}  // namespace skalla
