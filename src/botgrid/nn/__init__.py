"""From-scratch CNN engine: layers, loss, optimizer, model container."""
