package crashcheck

import (
	"testing"

	"github.com/text-analytics/ntadoc/internal/nvm/nvmtest"
)

func TestMain(m *testing.M) { nvmtest.Main(m) }
