// fig9b_messages.cpp -- reproduces Figure 9(b): "Number of messages
// exchanged for Component(ID) information maintenance": the maximum
// number of messages (sent + received) any node handles, per strategy.
//
// A node that changes id broadcasts to all its current neighbors, so a
// node's sent-message total is (id changes) x (degree at each change):
// strategies with higher degree increase pay proportionally more. The
// paper's Fig. 9(b) counts messages *sent* ("the maximum number of
// messages a node sent out"), which is what this bench reports; the
// combined sent+received Lemma 8 bound is exercised by thm1_bounds.
#include <cmath>
#include <iostream>

#include "figure_common.h"

int main(int argc, char** argv) {
  using dash::api::Metrics;
  const std::string title =
      "Figure 9(b): max messages sent per node vs graph size";
  dash::bench::FigureOptions fo;
  if (!fo.parse(argc, argv, title)) return fo.help ? 0 : 2;
  return dash::bench::run_strategy_sweep_figure(
      fo, title, "max_messages_sent", [](const Metrics& r) {
        return static_cast<double>(r.max_messages_sent);
      });
}
